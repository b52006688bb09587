#pragma once
/// \file numeric.hpp
/// Locale-independent double <-> text conversion.
///
/// The measurement pipeline round-trips doubles through CSV (trace
/// replay, model serialization) and INI scenario files. Both
/// std::stod and ostream insertion consult the global locale (a
/// de_DE.UTF-8 process parses "1,5" and prints a comma decimal
/// separator) and the default ostream precision truncates doubles to
/// 6-12 significant digits. These helpers use std::to_chars /
/// std::from_chars instead: always the C numeric format, and the
/// shortest representation that parses back to the identical bits.

#include <string>
#include <string_view>

namespace voprof::util {

/// Shortest round-trip decimal representation of `v`: the output,
/// parsed with parse_double, compares bit-identical to `v` (including
/// +/-inf and nan). Never uses a locale-dependent decimal separator.
[[nodiscard]] std::string format_double(double v);

/// Parse the ENTIRE string as a double in the C numeric format
/// (optional leading +/-, decimal point '.', optional exponent,
/// "inf"/"nan" accepted). Surrounding spaces/tabs are tolerated;
/// any other leftover character fails. Returns false (leaving `out`
/// untouched) on empty input, malformed numbers or trailing junk —
/// independent of the global C and C++ locales.
[[nodiscard]] bool parse_double(std::string_view text, double& out) noexcept;

/// `v` as an int when it is finite, integral and within int's range;
/// false (leaving `out` untouched) otherwise. Check before casting: a
/// static_cast<int> of nan, inf or 1e20 is undefined behaviour.
[[nodiscard]] bool exact_int(double v, int& out) noexcept;

}  // namespace voprof::util
