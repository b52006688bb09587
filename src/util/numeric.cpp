#include "voprof/util/numeric.hpp"

#include <charconv>
#include <cmath>
#include <limits>
#include <system_error>

namespace voprof::util {

std::string format_double(double v) {
  // Shortest form that round-trips: to_chars without a precision
  // argument guarantees from_chars gives back the identical value.
  char buf[64];
  const std::to_chars_result res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

bool parse_double(std::string_view text, double& out) noexcept {
  // from_chars is whitespace- and sign-strict; accept the surrounding
  // blanks and the leading '+' that std::stod used to tolerate.
  std::size_t b = 0;
  while (b < text.size() && (text[b] == ' ' || text[b] == '\t')) ++b;
  std::size_t e = text.size();
  while (e > b && (text[e - 1] == ' ' || text[e - 1] == '\t')) --e;
  text = text.substr(b, e - b);
  if (!text.empty() && text.front() == '+') text.remove_prefix(1);
  if (text.empty()) return false;
  double value = 0.0;
  const std::from_chars_result res =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (res.ec != std::errc{} || res.ptr != text.data() + text.size() ||
      !std::isfinite(value)) {
    return false;
  }
  out = value;
  return true;
}

bool exact_int(double v, int& out) noexcept {
  // NaN fails both comparisons.
  if (!(v >= std::numeric_limits<int>::min() &&
        v <= std::numeric_limits<int>::max()) ||
      std::trunc(v) != v) {
    return false;
  }
  out = static_cast<int>(v);
  return true;
}

}  // namespace voprof::util
