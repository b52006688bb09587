#pragma once
/// \file csv.hpp
/// Small CSV writer/reader used to dump experiment traces (the paper's
/// measurement script logged per-second samples; our benches can emit the
/// same traces for offline plotting) and to reload them for trace-driven
/// model fitting.

#include <iosfwd>
#include <string>
#include <vector>

#include "voprof/util/result.hpp"

namespace voprof::util {

/// Row-oriented CSV document with a mandatory header row.
class CsvDocument {
 public:
  CsvDocument() = default;
  explicit CsvDocument(std::vector<std::string> header);

  [[nodiscard]] const std::vector<std::string>& header() const noexcept {
    return header_;
  }
  [[nodiscard]] std::size_t column_count() const noexcept {
    return header_.size();
  }
  [[nodiscard]] std::size_t row_count() const noexcept { return rows_.size(); }

  /// Index of a named column; throws if absent.
  [[nodiscard]] std::size_t column(const std::string& name) const;
  [[nodiscard]] bool has_column(const std::string& name) const noexcept;

  /// Append a numeric row; size must equal column_count().
  void add_row(std::vector<double> values);

  [[nodiscard]] double at(std::size_t row, std::size_t col) const;
  [[nodiscard]] double at(std::size_t row, const std::string& col) const;
  /// Entire column as a vector.
  [[nodiscard]] std::vector<double> column_values(const std::string& name) const;

  /// Serialize to CSV text.
  void write(std::ostream& os) const;
  [[nodiscard]] std::string str() const;
  void save(const std::string& path) const;

  /// Primary, non-throwing parse (numeric cells only). Errors carry
  /// Errc::kParse with a "row N" context, or Errc::kIo for unreadable
  /// files (load_result).
  [[nodiscard]] static Result<CsvDocument> parse_result(std::istream& is);
  [[nodiscard]] static Result<CsvDocument> parse_string_result(
      const std::string& text);
  [[nodiscard]] static Result<CsvDocument> load_result(
      const std::string& path);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<double>> rows_;
};

}  // namespace voprof::util
