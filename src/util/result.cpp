#include "voprof/util/result.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

namespace voprof::util {

const char* errc_name(Errc code) noexcept {
  switch (code) {
    case Errc::kParse:
      return "parse";
    case Errc::kValidation:
      return "validation";
    case Errc::kIo:
      return "io";
    case Errc::kUnsupported:
      return "unsupported";
    case Errc::kInternal:
      return "internal";
  }
  return "internal";
}

std::string Error::to_string() const {
  std::string out = std::string(errc_name(code)) + " error";
  if (!message.empty()) out += ": " + message;
  if (!context.empty()) out += " (at " + context + ")";
  return out;
}

Result<std::string> read_file_result(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Error{Errc::kIo, "cannot open file for reading", path};
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

Result<bool> write_file_result(const std::string& path,
                               const std::string& text) {
  std::ofstream out(path);
  if (!out) return Error{Errc::kIo, "cannot open file for writing", path};
  if (!(out << text).flush()) return Error{Errc::kIo, "cannot write", path};
  return true;
}

Result<bool> check_writable(const std::string& path) {
  std::error_code ec;
  // When existence is unknown (ec set), never remove the file.
  const bool existed = std::filesystem::exists(path, ec) || ec;
  if (!std::ofstream(path, std::ios::app)) {
    return Error{Errc::kIo, "cannot open file for writing", path};
  }
  if (!existed) std::filesystem::remove(path, ec);
  return true;
}

}  // namespace voprof::util
