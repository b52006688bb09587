#include "voprof/serve/api.hpp"

#include <algorithm>
#include <vector>

#include "voprof/util/cli.hpp"

namespace voprof::serve {

const char* op_name(Op op) noexcept {
  switch (op) {
    case Op::kPredict:
      return "predict";
    case Op::kSimulate:
      return "simulate";
    case Op::kTrain:
      return "train";
    case Op::kStatus:
      return "status";
    case Op::kDrain:
      return "drain";
    case Op::kMetrics:
      return "metrics";
    case Op::kSleep:
      return "sleep";
  }
  return "status";
}

util::Result<Op> op_from_name(const std::string& name) {
  for (Op op : {Op::kPredict, Op::kSimulate, Op::kTrain, Op::kStatus,
                Op::kDrain, Op::kMetrics, Op::kSleep}) {
    if (name == op_name(op)) return op;
  }
  return util::Error{util::Errc::kValidation, "unknown op: '" + name + "'",
                     "request.op"};
}

const char* api_error_name(ApiError code) noexcept {
  switch (code) {
    case ApiError::kBadRequest:
      return "bad_request";
    case ApiError::kOverloaded:
      return "overloaded";
    case ApiError::kTimedOut:
      return "timed_out";
    case ApiError::kShuttingDown:
      return "shutting_down";
    case ApiError::kInternal:
      return "internal";
  }
  return "internal";
}

util::Result<Request> parse_request(const std::string& line) {
  util::Result<util::Json> parsed = util::Json::parse_result(line);
  if (!parsed.ok()) {
    util::Error err = parsed.error();
    err.message = "malformed request JSON: " + err.message;
    err.context = "request " + err.context;
    return err;
  }
  const util::Json doc = std::move(parsed).take();
  // The envelope's fields pass the same key table check as an op's
  // params, so a typo ("deadline": ...) fails loudly instead of running
  // with the default.
  using F = util::FlagSpec;
  static const std::vector<F> fields = {
      {"api", F::Kind::kText, F::Bound::kNone, false, {kApiVersion}},
      {"id"},
      {"op", F::Kind::kText, F::Bound::kNone, true},
      {"deadline_ms", F::Kind::kNumber, F::Bound::kNonNegative},
      {"params", F::Kind::kObject}};
  const util::Result<bool> checked =
      doc.is_object() ? util::check_params(doc, fields, "field")
                      : util::Error{util::Errc::kValidation,
                                    "request must be a JSON object", {}};
  if (!checked.ok()) {
    util::Error err = checked.error();
    err.context = "request";
    return err;
  }
  const util::Result<Op> op = op_from_name(doc.at("op").as_string());
  if (!op.ok()) return op.error();

  Request req;
  req.op = op.value();
  req.id = doc.string_or("id", "");
  // Clamp before the cast: a static_cast of 1e300 is undefined (x86
  // yields INT64_MIN, read downstream as "use the default"). Anything
  // this large is past every max_deadline_ms, which Service applies.
  constexpr double kLongestDeadlineMs = 0x1p53;
  req.deadline_ms = static_cast<std::int64_t>(
      std::min(doc.number_or("deadline_ms", 0.0), kLongestDeadlineMs));
  const util::Json* params = doc.find("params");
  req.params = params != nullptr ? *params : util::Json::object();
  return req;
}

std::string ok_response(const std::string& id, util::Json result) {
  util::Json resp = util::Json::object();
  resp.set("api", kApiVersion);
  resp.set("id", id);
  resp.set("ok", true);
  resp.set("result", std::move(result));
  return resp.dump(/*indent=*/0);
}

std::string error_response(const std::string& id, ApiError code,
                           const std::string& message) {
  util::Json err = util::Json::object();
  err.set("code", api_error_name(code));
  err.set("message", message);
  util::Json resp = util::Json::object();
  resp.set("api", kApiVersion);
  resp.set("id", id);
  resp.set("ok", false);
  resp.set("error", std::move(err));
  return resp.dump(/*indent=*/0);
}

}  // namespace voprof::serve
