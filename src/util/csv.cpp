#include "voprof/util/csv.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <utility>

#include "voprof/util/assert.hpp"
#include "voprof/util/numeric.hpp"

namespace voprof::util {

CsvDocument::CsvDocument(std::vector<std::string> header)
    : header_(std::move(header)) {
  VOPROF_REQUIRE_MSG(!header_.empty(), "CSV needs at least one column");
}

std::size_t CsvDocument::column(const std::string& name) const {
  const auto it = std::find(header_.begin(), header_.end(), name);
  VOPROF_REQUIRE_MSG(it != header_.end(), "unknown CSV column: " + name);
  return static_cast<std::size_t>(it - header_.begin());
}

bool CsvDocument::has_column(const std::string& name) const noexcept {
  return std::find(header_.begin(), header_.end(), name) != header_.end();
}

void CsvDocument::add_row(std::vector<double> values) {
  VOPROF_REQUIRE_MSG(values.size() == header_.size(),
                     "CSV row width mismatch");
  rows_.push_back(std::move(values));
}

double CsvDocument::at(std::size_t row, std::size_t col) const {
  VOPROF_REQUIRE(row < rows_.size());
  VOPROF_REQUIRE(col < header_.size());
  return rows_[row][col];
}

double CsvDocument::at(std::size_t row, const std::string& col) const {
  return at(row, column(col));
}

std::vector<double> CsvDocument::column_values(const std::string& name) const {
  const std::size_t c = column(name);
  std::vector<double> out;
  out.reserve(rows_.size());
  for (const auto& r : rows_) out.push_back(r[c]);
  return out;
}

void CsvDocument::write(std::ostream& os) const {
  for (std::size_t i = 0; i < header_.size(); ++i) {
    os << header_[i];
    if (i + 1 < header_.size()) os << ',';
  }
  os << '\n';
  // format_double: shortest round-trip text, independent of the
  // stream's precision and locale — save/load is bit-exact.
  for (const auto& r : rows_) {
    for (std::size_t i = 0; i < r.size(); ++i) {
      os << format_double(r[i]);
      if (i + 1 < r.size()) os << ',';
    }
    os << '\n';
  }
}

std::string CsvDocument::str() const {
  std::ostringstream os;
  write(os);
  return os.str();
}

void CsvDocument::save(const std::string& path) const {
  std::ofstream f(path);
  VOPROF_REQUIRE_MSG(f.good(), "cannot open CSV for writing: " + path);
  write(f);
}

namespace {

std::vector<std::string> split_line(const std::string& line) {
  std::vector<std::string> cells;
  std::string cur;
  for (char ch : line) {
    if (ch == ',') {
      cells.push_back(cur);
      cur.clear();
    } else if (ch != '\r') {
      cur.push_back(ch);
    }
  }
  cells.push_back(cur);
  return cells;
}

}  // namespace

Result<CsvDocument> CsvDocument::parse_result(std::istream& is) {
  std::string line;
  if (!std::getline(is, line)) {
    return Error{Errc::kParse, "CSV input is empty", "row 1"};
  }
  CsvDocument doc;
  doc.header_ = split_line(line);
  if (doc.header_.empty() || (doc.header_.size() == 1 &&
                              doc.header_.front().empty())) {
    return Error{Errc::kParse, "CSV needs at least one column", "row 1"};
  }
  std::size_t row_no = 1;
  while (std::getline(is, line)) {
    ++row_no;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    const auto cells = split_line(line);
    const std::string ctx = "row " + std::to_string(row_no);
    if (cells.size() != doc.header_.size()) {
      return Error{Errc::kParse,
                   "row width mismatch: expected " +
                       std::to_string(doc.header_.size()) + " cells, got " +
                       std::to_string(cells.size()),
                   ctx};
    }
    std::vector<double> row;
    row.reserve(cells.size());
    for (const auto& cell : cells) {
      double v = 0.0;
      if (!parse_double(cell, v)) {
        return Error{Errc::kParse, "non-numeric CSV cell: '" + cell + "'",
                     ctx};
      }
      row.push_back(v);
    }
    doc.rows_.push_back(std::move(row));
  }
  return doc;
}

Result<CsvDocument> CsvDocument::parse_string_result(const std::string& text) {
  std::istringstream is(text);
  return parse_result(is);
}

Result<CsvDocument> CsvDocument::load_result(const std::string& path) {
  std::ifstream f(path);
  if (!f.good()) {
    return Error{Errc::kIo, "cannot open CSV for reading", path};
  }
  Result<CsvDocument> parsed = parse_result(f);
  if (!parsed.ok()) {
    Error err = parsed.error();
    err.context = path + ":" + err.context;
    return err;
  }
  return parsed;
}

}  // namespace voprof::util
