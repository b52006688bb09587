#pragma once
/// \file api.hpp
/// The versioned public request/response schema of voprofd
/// (`voprof-api-1`), shared by the daemon, `voprofctl serve|request`
/// and the tests — exactly one serialization of the wire format.
///
/// Transport framing is newline-delimited JSON: one request object per
/// line, one response object per line, matched by `id`. Responses may
/// arrive out of request order (the daemon executes on a worker pool),
/// so clients that pipeline requests must correlate by id.
///
/// Request:
///   {"api": "voprof-api-1",        // optional; rejected if mismatched
///    "id": "r1",                   // optional, echoed verbatim
///    "op": "predict",              // required
///    "deadline_ms": 2000,          // optional, 0/absent = server default
///    "params": { ... }}            // optional, op-specific
///
/// Response (success / error):
///   {"api": "voprof-api-1", "id": "r1", "ok": true,  "result": {...}}
///   {"api": "voprof-api-1", "id": "r1", "ok": false,
///    "error": {"code": "overloaded", "message": "..."}}
///
/// Error codes are part of the API contract: `bad_request`,
/// `overloaded` (admission queue full — retry later), `timed_out`
/// (deadline expired), `shutting_down` (daemon is draining),
/// `internal`.

#include <cstdint>
#include <string>

#include "voprof/util/json.hpp"
#include "voprof/util/result.hpp"

namespace voprof::serve {

/// Schema identifier carried by every request and response.
inline constexpr const char* kApiVersion = "voprof-api-1";

/// The operations voprofd accepts. kSleep is a diagnostics op only
/// served when ServiceConfig::enable_test_ops is set (tests and the
/// CI smoke use it to hold workers busy deterministically).
enum class Op {
  kPredict,
  kSimulate,
  kTrain,
  kStatus,
  kDrain,
  kMetrics,
  kSleep,
};

/// Wire name of an op ("predict", ...).
[[nodiscard]] const char* op_name(Op op) noexcept;
/// Inverse; Errc::kValidation error for unknown names.
[[nodiscard]] util::Result<Op> op_from_name(const std::string& name);

/// Structured error codes of the response schema.
enum class ApiError {
  kBadRequest,
  kOverloaded,
  kTimedOut,
  kShuttingDown,
  kInternal,
};

/// Wire name of an error code ("bad_request", ...).
[[nodiscard]] const char* api_error_name(ApiError code) noexcept;

/// One parsed request envelope.
struct Request {
  std::string id;                ///< "" when the client sent none
  Op op = Op::kStatus;
  std::int64_t deadline_ms = 0;  ///< 0 = use the server default
  util::Json params;             ///< object; empty object when absent
};

/// Parse one NDJSON request line against the voprof-api-1 envelope.
/// Errors carry Errc::kParse (malformed JSON) or Errc::kValidation
/// (well-formed JSON violating the schema).
[[nodiscard]] util::Result<Request> parse_request(const std::string& line);

/// Serialize a success response (compact, single line, no trailing
/// newline — the transport adds framing).
[[nodiscard]] std::string ok_response(const std::string& id,
                                      util::Json result);

/// Serialize an error response.
[[nodiscard]] std::string error_response(const std::string& id, ApiError code,
                                         const std::string& message);

}  // namespace voprof::serve
