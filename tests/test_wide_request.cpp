/// A request line whose params object has 200 000 keys: parsing it is
/// linear in its size, so the service answers `bad_request` (every key
/// is unknown) well within the ctest TIMEOUT rather than stalling on a
/// per-key scan of the keys parsed so far.

#include <gtest/gtest.h>

#include <string>

#include "voprof/serve/service.hpp"
#include "voprof/util/json.hpp"

namespace voprof::serve {
namespace {

TEST(WideRequest, TwoHundredThousandParamsAreABadRequestInLinearTime) {
  constexpr int kKeys = 200000;
  std::string line = R"({"op":"predict","params":{)";
  for (int i = 0; i < kKeys; ++i) {
    line += (i > 0 ? ",\"k" : "\"k") + std::to_string(i) + "\":0";
  }
  line += "}}";
  ServiceConfig config;
  config.jobs = 1;
  Service service(config);
  const util::Json response =
      util::Json::parse_result(service.handle_line(line)).value();
  ASSERT_FALSE(response.at("ok").as_bool());
  EXPECT_EQ(response.at("error").at("code").as_string(), "bad_request");
  EXPECT_NE(response.at("error").at("message").as_string().find(
                "unknown param 'k0'"),
            std::string::npos);
}

}  // namespace
}  // namespace voprof::serve
