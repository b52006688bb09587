#include "voprof/util/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "voprof/util/assert.hpp"

namespace voprof::util {
namespace {

/// Parse a document the test expects to be well-formed.
Json parse(std::string_view text) { return Json::parse_result(text).value(); }

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(parse("null").is_null());
  EXPECT_TRUE(parse("true").as_bool());
  EXPECT_FALSE(parse("false").as_bool());
  EXPECT_DOUBLE_EQ(parse("42").as_number(), 42.0);
  EXPECT_DOUBLE_EQ(parse("-3.25e2").as_number(), -325.0);
  EXPECT_EQ(parse("\"hi\"").as_string(), "hi");
}

TEST(Json, ParsesNestedStructures) {
  const Json doc = parse(R"({
    "name": "bench",
    "reps": 5,
    "wall_s": {"median": 0.125, "raw": [0.1, 0.15]},
    "flags": [true, false, null]
  })");
  EXPECT_EQ(doc.at("name").as_string(), "bench");
  EXPECT_DOUBLE_EQ(doc.at("reps").as_number(), 5.0);
  EXPECT_DOUBLE_EQ(doc.at("wall_s").at("median").as_number(), 0.125);
  ASSERT_EQ(doc.at("wall_s").at("raw").as_array().size(), 2u);
  EXPECT_TRUE(doc.at("flags").as_array()[2].is_null());
}

TEST(Json, StringEscapes) {
  const Json doc = parse(R"("a\"b\\c\nd\teA")");
  EXPECT_EQ(doc.as_string(), "a\"b\\c\nd\teA");
  // Round trip through dump.
  EXPECT_EQ(parse(doc.dump(0)).as_string(), doc.as_string());
}

TEST(Json, DumpKeepsInsertionOrderAndRoundTrips) {
  Json obj = Json::object();
  obj.set("zeta", 1);
  obj.set("alpha", Json::array());
  obj.set("mid", "x");
  const std::string text = obj.dump(0);
  EXPECT_EQ(text, R"({"zeta":1,"alpha":[],"mid":"x"})");
  const Json back = parse(text);
  EXPECT_EQ(back.dump(0), text);
}

TEST(Json, NumbersRoundTripExactly) {
  for (const double v : {0.1, 1.0 / 3.0, 6.02e23, -0.0005475329999171663}) {
    Json j(v);
    EXPECT_DOUBLE_EQ(parse(j.dump(0)).as_number(), v);
  }
}

TEST(Json, NonFiniteNumbersSerializeAsNull) {
  Json arr = Json::array();
  arr.push_back(std::numeric_limits<double>::quiet_NaN());
  arr.push_back(std::numeric_limits<double>::infinity());
  arr.push_back(1.5);
  const Json back = parse(arr.dump(0));
  EXPECT_TRUE(back.as_array()[0].is_null());
  EXPECT_TRUE(back.as_array()[1].is_null());
  EXPECT_DOUBLE_EQ(back.as_array()[2].as_number(), 1.5);
}

TEST(Json, MalformedInputIsAParseError) {
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"", "byte 0"},
      {"{", "byte 1"},
      {"[1,]", "byte 3"},
      {"{\"a\" 1}", "byte 5"},
      {"nul", "byte 0"},
      {"1 2", "byte 2"},  // trailing token
      {"\"unterminated", "byte 13"}};
  for (const auto& [text, where] : cases) {
    const Result<Json> r = Json::parse_result(text);
    ASSERT_FALSE(r.ok()) << text;
    EXPECT_EQ(r.error().code, Errc::kParse) << text;
    EXPECT_EQ(r.error().context, where) << text;
  }
}

TEST(Json, NestingIsBoundedNotRecursedWithoutLimit) {
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_TRUE(Json::parse_result(nested(Json::kMaxDepth)).ok());
  const Result<Json> deep = Json::parse_result(nested(Json::kMaxDepth + 1));
  ASSERT_FALSE(deep.ok());
  EXPECT_EQ(deep.error().code, Errc::kParse);
  EXPECT_EQ(deep.error().context, "byte " + std::to_string(Json::kMaxDepth));
  // A hostile line: 200 000 open brackets inside an object, no closers.
  const Result<Json> hostile = Json::parse_result(
      R"({"api":"voprof-api-1","params":)" + std::string(200000, '['));
  ASSERT_FALSE(hostile.ok());
  EXPECT_EQ(hostile.error().code, Errc::kParse);
}

TEST(Json, LoadResultNamesTheFile) {
  const Result<Json> missing = Json::load_result("/nonexistent/doc.json");
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.error().code, Errc::kIo);
  EXPECT_EQ(missing.error().context, "/nonexistent/doc.json");
}

TEST(Json, TypeMismatchedAccessThrows) {
  // Typed access is a precondition: input code checks with find() and
  // is_*() first.
  const Json n(1.0);
  EXPECT_THROW((void)n.as_string(), ContractViolation);
  EXPECT_THROW((void)n.as_array(), ContractViolation);
  EXPECT_THROW((void)n.at("k"), ContractViolation);
  const Json obj = parse(R"({"a": 1})");
  EXPECT_THROW((void)obj.at("missing"), ContractViolation);
  EXPECT_EQ(obj.find("missing"), nullptr);
  ASSERT_NE(obj.find("a"), nullptr);
  EXPECT_DOUBLE_EQ(obj.find("a")->as_number(), 1.0);
}

TEST(Json, RepeatedKeysKeepFirstPositionAndLastValue) {
  // The parser folds repeats the way set() does, at any object size.
  EXPECT_EQ(Json::parse(R"({"a":1,"b":2,"a":3})").dump(0), R"({"a":3,"b":2})");
  std::string wide = "{";
  Json expected = Json::object();
  for (int i = 0; i < 100; ++i) {
    const std::string key = std::string("k").append(std::to_string(i % 40));
    wide += (i > 0 ? ",\"" : "\"") + key + "\":" + std::to_string(i);
    expected.set(key, i);
  }
  wide += "}";
  const Json parsed = Json::parse(wide);
  EXPECT_EQ(parsed.as_object().size(), 40u);
  EXPECT_EQ(parsed.dump(0), expected.dump(0));
  EXPECT_DOUBLE_EQ(parsed.at("k0").as_number(), 80.0);
}

TEST(Json, PrettyPrintIsStable) {
  Json obj = Json::object();
  obj.set("a", 1);
  Json inner = Json::array();
  inner.push_back(2);
  obj.set("b", std::move(inner));
  EXPECT_EQ(obj.dump(2), "{\n  \"a\": 1,\n  \"b\": [\n    2\n  ]\n}");
}

}  // namespace
}  // namespace voprof::util
