#include "voprof/util/numeric.hpp"

#include <gtest/gtest.h>

#include <clocale>
#include <cmath>
#include <limits>
#include <locale>
#include <string>
#include <vector>

#include "voprof/scenario/scenario.hpp"
#include "voprof/util/assert.hpp"
#include "voprof/util/csv.hpp"

namespace voprof::util {
namespace {

TEST(FormatDouble, RoundTripsExactly) {
  const std::vector<double> values = {
      0.0,
      -0.0,
      1.0,
      -1.0,
      0.1,
      1.0 / 3.0,
      3.141592653589793,
      1e-300,
      -1e300,
      123456789.123456789,
      5e-324,                                    // min subnormal
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::epsilon(),
      0.1 + 0.2,                                 // 0.30000000000000004
  };
  for (const double v : values) {
    const std::string text = format_double(v);
    double back = 0.0;
    ASSERT_TRUE(parse_double(text, back)) << text;
    EXPECT_EQ(back, v) << text;  // bit-exact round trip
  }
}

TEST(FormatDouble, UsesShortestRepresentation) {
  EXPECT_EQ(format_double(0.5), "0.5");
  EXPECT_EQ(format_double(1.0), "1");
  EXPECT_EQ(format_double(-2.0), "-2");
  EXPECT_EQ(format_double(0.1), "0.1");
}

TEST(ParseDouble, AcceptsPaddingAndLeadingPlus) {
  double v = 0.0;
  EXPECT_TRUE(parse_double("  3.5\t", v));
  EXPECT_EQ(v, 3.5);
  EXPECT_TRUE(parse_double("+7", v));
  EXPECT_EQ(v, 7.0);
  EXPECT_TRUE(parse_double("1e3", v));
  EXPECT_EQ(v, 1000.0);
  EXPECT_TRUE(parse_double("-0.25", v));
  EXPECT_EQ(v, -0.25);
}

TEST(ParseDouble, RejectsJunk) {
  double v = 0.0;
  EXPECT_FALSE(parse_double("", v));
  EXPECT_FALSE(parse_double("   ", v));
  EXPECT_FALSE(parse_double("abc", v));
  EXPECT_FALSE(parse_double("1.5x", v));
  EXPECT_FALSE(parse_double("1.5 2.5", v));
  EXPECT_FALSE(parse_double("++1", v));
  // Non-finite numbers are input errors too: one NaN poisons a fit.
  v = 2.5;
  for (const char* text : {"nan", "NaN", "-nan", "inf", "-inf", "+inf",
                           "infinity", "INF", "1e400"}) {
    EXPECT_FALSE(parse_double(text, v)) << text;
  }
  EXPECT_EQ(v, 2.5);
}

/// Installs a decimal-comma locale for the scope, restoring the global
/// locale afterwards. Reports whether one was available on this system
/// (the parsing code must be immune either way).
class CommaLocaleGuard {
 public:
  CommaLocaleGuard() {
    for (const char* name :
         {"de_DE.UTF-8", "de_DE.utf8", "de_DE", "fr_FR.UTF-8", "fr_FR.utf8",
          "fr_FR", "it_IT.UTF-8", "nl_NL.UTF-8"}) {
      try {
        std::locale::global(std::locale(name));
        std::setlocale(LC_ALL, name);
        installed_ = true;
        break;
      } catch (const std::runtime_error&) {
      }
    }
  }
  ~CommaLocaleGuard() {
    std::locale::global(original_);
    std::setlocale(LC_ALL, "C");
  }
  [[nodiscard]] bool installed() const noexcept { return installed_; }

 private:
  std::locale original_ = std::locale();
  bool installed_ = false;
};

TEST(LocaleIndependence, CsvParsesUnderCommaDecimalLocale) {
  const CommaLocaleGuard guard;
  // Even if no comma-decimal locale is installed in this image, the
  // parse must give identical results under the default locale.
  const CsvDocument doc =
      CsvDocument::parse_string_result("a,b\n1.5,2.25\n-0.125,1e2\n")
          .value();
  EXPECT_EQ(doc.at(0, 0), 1.5);
  EXPECT_EQ(doc.at(0, 1), 2.25);
  EXPECT_EQ(doc.at(1, 0), -0.125);
  EXPECT_EQ(doc.at(1, 1), 100.0);
}

TEST(LocaleIndependence, CsvWritesDotDecimalUnderCommaLocale) {
  const CommaLocaleGuard guard;
  CsvDocument doc({"x"});
  doc.add_row({0.5});
  EXPECT_EQ(doc.str(), "x\n0.5\n");
}

TEST(LocaleIndependence, ScenarioConfParsesUnderCommaDecimalLocale) {
  const CommaLocaleGuard guard;
  const scenario::ScenarioSpec spec = scenario::ScenarioSpec::parse(
      "[cluster]\nseed = 7\nmachines = 1\n"
      "[vm web]\ncpu = 37.5\nbw = 128.25\n"
      "[run]\nduration = 2.5\nwarmup = 0.5\n");
  EXPECT_EQ(spec.vms.at(0).cpu_pct, 37.5);
  EXPECT_EQ(spec.vms.at(0).bw_kbps, 128.25);
  EXPECT_EQ(spec.duration_s, 2.5);
  EXPECT_EQ(spec.warmup_s, 0.5);
}

TEST(LocaleIndependence, CsvRoundTripUnderCommaLocaleIsBitExact) {
  const CommaLocaleGuard guard;
  CsvDocument doc({"v"});
  doc.add_row({1.0 / 3.0});
  doc.add_row({0.1 + 0.2});
  doc.add_row({std::nextafter(1.0, 2.0)});
  const CsvDocument back = CsvDocument::parse_string_result(doc.str()).value();
  for (std::size_t r = 0; r < doc.row_count(); ++r) {
    EXPECT_EQ(back.at(r, 0), doc.at(r, 0));
  }
}

TEST(CsvParse, RejectsNonNumericCell) {
  const Result<CsvDocument> r =
      CsvDocument::parse_string_result("a\nnot_a_number\n");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code, Errc::kParse);
  EXPECT_EQ(r.error().context, "row 2");
}

}  // namespace
}  // namespace voprof::util
