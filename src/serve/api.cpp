#include "voprof/serve/api.hpp"

#include <algorithm>

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
  if (!doc.is_object()) {
    return util::Error{util::Errc::kValidation,
                       "request must be a JSON object", "request"};
  }
  const auto fail = [](const std::string& field, const std::string& msg) {
    return util::Error{util::Errc::kValidation, msg, "request." + field};
  };

  if (const util::Json* api = doc.find("api")) {
    if (!api->is_string() || api->as_string() != kApiVersion) {
      return fail("api", std::string("unsupported api version (want '") +
                             kApiVersion + "')");
    }
  }

  Request req;
  if (const util::Json* id = doc.find("id")) {
    if (!id->is_string()) return fail("id", "id must be a string");
    req.id = id->as_string();
  }

  const util::Json* op = doc.find("op");
  if (op == nullptr) return fail("op", "missing required field 'op'");
  if (!op->is_string()) return fail("op", "op must be a string");
  util::Result<Op> parsed_op = op_from_name(op->as_string());
  if (!parsed_op.ok()) return parsed_op.error();
  req.op = parsed_op.value();

  if (const util::Json* deadline = doc.find("deadline_ms")) {
    if (!deadline->is_number() || deadline->as_number() < 0) {
      return fail("deadline_ms", "deadline_ms must be a number >= 0");
    }
    // Clamp before the cast: a static_cast of 1e300 is undefined (x86
    // yields INT64_MIN, read downstream as "use the default"). Anything
    // this large is past every max_deadline_ms, which Service applies.
    constexpr double kLongestDeadlineMs = 0x1p53;
    req.deadline_ms = static_cast<std::int64_t>(
        std::min(deadline->as_number(), kLongestDeadlineMs));
  }

  if (const util::Json* params = doc.find("params")) {
    if (!params->is_object()) {
      return fail("params", "params must be an object");
    }
    req.params = *params;
  } else {
    req.params = util::Json::object();
  }

  // Reject unknown envelope keys so typos ("deadline": ...) fail loudly
  // instead of silently running with the default.
  for (const auto& [key, value] : doc.as_object()) {
    (void)value;
    if (key != "api" && key != "id" && key != "op" && key != "deadline_ms" &&
        key != "params") {
      return fail(key, "unknown request field '" + key + "'");
    }
  }
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

ApiError api_error_from(const util::Error& err) noexcept {
  switch (err.code) {
    case util::Errc::kParse:
    case util::Errc::kValidation:
    case util::Errc::kIo:
    case util::Errc::kUnsupported:
      return ApiError::kBadRequest;
    case util::Errc::kInternal:
      return ApiError::kInternal;
  }
  return ApiError::kInternal;
}

}  // namespace voprof::serve
