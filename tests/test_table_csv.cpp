#include <gtest/gtest.h>

#include <sstream>

#include "voprof/util/assert.hpp"
#include "voprof/util/csv.hpp"
#include "voprof/util/table.hpp"

namespace voprof::util {
namespace {

TEST(AsciiTable, RendersTitleHeaderRows) {
  AsciiTable t("demo");
  t.set_header({"a", "bbb"});
  t.add_row({"1", "2"});
  const std::string s = t.str();
  EXPECT_NE(s.find("== demo =="), std::string::npos);
  EXPECT_NE(s.find("bbb"), std::string::npos);
  EXPECT_NE(s.find('1'), std::string::npos);
}

TEST(AsciiTable, AlignsColumns) {
  AsciiTable t;
  t.set_header({"x", "y"});
  t.add_row({"longvalue", "1"});
  t.add_row({"a", "2"});
  std::istringstream is(t.str());
  std::string header, rule, r1, r2;
  std::getline(is, header);
  std::getline(is, rule);
  std::getline(is, r1);
  std::getline(is, r2);
  // The second column starts at the same offset in both rows.
  EXPECT_EQ(r1.find('1'), r2.find('2'));
}

TEST(AsciiTable, RowWidthMismatchThrows) {
  AsciiTable t;
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), ContractViolation);
}

TEST(AsciiTable, RuleInsertsSeparator) {
  AsciiTable t;
  t.set_header({"a"});
  t.add_row({"1"});
  t.add_rule();
  t.add_row({"2"});
  std::istringstream is(t.str());
  std::string line;
  int rules = 0;
  while (std::getline(is, line)) {
    if (!line.empty() && line.find_first_not_of('-') == std::string::npos)
      ++rules;
  }
  EXPECT_EQ(rules, 2);  // header rule + explicit rule
}

TEST(Fmt, FixedDecimals) {
  EXPECT_EQ(fmt(3.14159, 2), "3.14");
  EXPECT_EQ(fmt(2.0, 0), "2");
  EXPECT_EQ(fmt(-0.0001, 2), "0.00");  // no "-0.00"
}

TEST(Fmt, VsFormat) {
  EXPECT_EQ(fmt_vs(29.43, 29.5, 1), "29.4 (29.5)");
}

TEST(Csv, RoundTripThroughText) {
  CsvDocument doc({"t", "cpu", "bw"});
  doc.add_row({1.0, 16.8, 2.03});
  doc.add_row({2.0, 17.1, 2.10});
  const CsvDocument parsed =
      CsvDocument::parse_string_result(doc.str()).value();
  EXPECT_EQ(parsed.row_count(), 2u);
  EXPECT_EQ(parsed.header(), doc.header());
  EXPECT_DOUBLE_EQ(parsed.at(1, "cpu"), 17.1);
}

TEST(Csv, RoundTripIsBitExactForFullPrecisionDoubles) {
  // write() formats with shortest round-trip precision; 12 significant
  // digits (the old behaviour) would corrupt every one of these.
  CsvDocument doc({"v"});
  const std::vector<double> values = {1.0 / 3.0, 0.1 + 0.2,
                                      123456789.123456789,
                                      2.718281828459045e-7, 1e-300};
  for (double v : values) doc.add_row({v});
  const CsvDocument parsed =
      CsvDocument::parse_string_result(doc.str()).value();
  ASSERT_EQ(parsed.row_count(), values.size());
  for (std::size_t r = 0; r < values.size(); ++r) {
    EXPECT_EQ(parsed.at(r, 0), values[r]);  // exact, not DOUBLE_EQ
  }
}

TEST(Csv, ColumnLookup) {
  CsvDocument doc({"a", "b"});
  doc.add_row({1.0, 2.0});
  EXPECT_EQ(doc.column("b"), 1u);
  EXPECT_TRUE(doc.has_column("a"));
  EXPECT_FALSE(doc.has_column("zz"));
  EXPECT_THROW((void)doc.column("zz"), ContractViolation);
  const auto vals = doc.column_values("b");
  ASSERT_EQ(vals.size(), 1u);
  EXPECT_DOUBLE_EQ(vals[0], 2.0);
}

TEST(Csv, RowWidthEnforced) {
  CsvDocument doc({"a", "b"});
  EXPECT_THROW(doc.add_row({1.0}), ContractViolation);
}

TEST(Csv, ParseRejectsGarbage) {
  for (const char* garbage : {"a,b\n1,notanumber\n", "a,b\n1\n", ""}) {
    const Result<CsvDocument> r = CsvDocument::parse_string_result(garbage);
    ASSERT_FALSE(r.ok()) << garbage;
    EXPECT_EQ(r.error().code, Errc::kParse) << garbage;
  }
}

TEST(Csv, ParseHandlesCrlfAndBlankLines) {
  const CsvDocument doc =
      CsvDocument::parse_string_result("a,b\r\n1,2\r\n\r\n3,4\r\n").value();
  EXPECT_EQ(doc.row_count(), 2u);
  EXPECT_DOUBLE_EQ(doc.at(1, "b"), 4.0);
}

TEST(Csv, OutOfRangeAccessThrows) {
  CsvDocument doc({"a"});
  doc.add_row({1.0});
  EXPECT_THROW((void)doc.at(1, 0), ContractViolation);
  EXPECT_THROW((void)doc.at(0, 5), ContractViolation);
}

TEST(Csv, SaveAndLoadFile) {
  CsvDocument doc({"x"});
  doc.add_row({42.0});
  const std::string path = ::testing::TempDir() + "/voprof_csv_test.csv";
  ASSERT_TRUE(doc.save(path).ok());
  const CsvDocument loaded = CsvDocument::load_result(path).value();
  EXPECT_DOUBLE_EQ(loaded.at(0, "x"), 42.0);
}

}  // namespace
}  // namespace voprof::util
