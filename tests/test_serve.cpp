/// Serving-layer tests: the voprof-api-1 envelope, the bounded-queue
/// Service (saturation, deadlines, drain) and the socket daemon.
/// Labelled `concurrency` so the TSan CI job runs the whole file.

#include "voprof/serve/service.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "voprof/obs/trace.hpp"
#include "voprof/runner/runner.hpp"
#include "voprof/serve/api.hpp"
#include "voprof/serve/daemon.hpp"
#include "voprof/serve/socket.hpp"
#include "voprof/util/json.hpp"
#include "voprof/util/task_pool.hpp"
#include "voprof/util/units.hpp"

namespace voprof::serve {
namespace {

// ------------------------------------------------------------ envelope
TEST(Api, ParsesMinimalAndFullEnvelopes) {
  const auto minimal = parse_request(R"({"op":"status"})");
  ASSERT_TRUE(minimal.ok());
  EXPECT_EQ(minimal.value().op, Op::kStatus);
  EXPECT_EQ(minimal.value().id, "");
  EXPECT_EQ(minimal.value().deadline_ms, 0);

  const auto full = parse_request(
      R"({"api":"voprof-api-1","id":"r1","op":"predict",)"
      R"("deadline_ms":2500,"params":{"cpu":10}})");
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.value().op, Op::kPredict);
  EXPECT_EQ(full.value().id, "r1");
  EXPECT_EQ(full.value().deadline_ms, 2500);
  ASSERT_NE(full.value().params.find("cpu"), nullptr);
}

TEST(Api, RejectsMalformedAndInvalidRequests) {
  EXPECT_EQ(parse_request("{not json").error().code, util::Errc::kParse);
  // Well-formed JSON violating the schema is kValidation.
  EXPECT_EQ(parse_request(R"({"op":"nope"})").error().code,
            util::Errc::kValidation);
  EXPECT_EQ(parse_request(R"({"op":"status","api":"voprof-api-0"})")
                .error()
                .code,
            util::Errc::kValidation);
  EXPECT_FALSE(parse_request(R"({"id":"x"})").ok());  // op missing
  EXPECT_FALSE(parse_request(R"({"op":"status","bogus":1})").ok());
  EXPECT_FALSE(parse_request(R"({"op":"status","deadline_ms":-5})").ok());
  EXPECT_FALSE(parse_request(R"({"op":"status","params":[1]})").ok());
  EXPECT_FALSE(parse_request(R"([1,2])").ok());
}

TEST(Api, ResponsesCarryVersionIdAndShape) {
  util::Json result = util::Json::object();
  result.set("x", 1.0);
  const util::Json ok = util::Json::parse(ok_response("r7", std::move(result)));
  EXPECT_EQ(ok.at("api").as_string(), kApiVersion);
  EXPECT_EQ(ok.at("id").as_string(), "r7");
  EXPECT_TRUE(ok.at("ok").as_bool());
  EXPECT_DOUBLE_EQ(ok.at("result").at("x").as_number(), 1.0);

  const util::Json err = util::Json::parse(
      error_response("r8", ApiError::kOverloaded, "queue full"));
  EXPECT_FALSE(err.at("ok").as_bool());
  EXPECT_EQ(err.at("error").at("code").as_string(), "overloaded");
  EXPECT_EQ(err.at("error").at("message").as_string(), "queue full");
}

TEST(Api, OpNamesRoundTrip) {
  for (const Op op : {Op::kPredict, Op::kSimulate, Op::kTrain, Op::kStatus,
                      Op::kDrain, Op::kMetrics, Op::kSleep}) {
    const auto back = op_from_name(op_name(op));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), op);
  }
  EXPECT_FALSE(op_from_name("retrain").ok());
}

// ------------------------------------------------------------- service
ServiceConfig test_config() {
  ServiceConfig config;
  config.jobs = 1;
  config.queue_capacity = 2;
  config.enable_test_ops = true;
  // Short but viable cells: the fitter needs at least one 1 s sample
  // per sweep cell to assemble enough observations.
  config.train_duration_s = 1.0;
  return config;
}

/// Thread-safe response sink for fire-and-forget submissions.
struct Sink {
  std::mutex mutex;
  std::vector<std::string> lines;
  Service::Responder responder() {
    return [this](std::string line) {
      std::lock_guard<std::mutex> lock(mutex);
      lines.push_back(std::move(line));
    };
  }
  std::vector<std::string> take() {
    std::lock_guard<std::mutex> lock(mutex);
    return lines;
  }
};

std::string error_code_of(const std::string& line) {
  const util::Json doc = util::Json::parse(line);
  if (doc.at("ok").as_bool()) return "";
  return doc.at("error").at("code").as_string();
}

TEST(Service, SaturationGetsStructuredOverloadedNotBlocking) {
  Service service(test_config());  // 1 worker, 2 admission slots
  Sink sink;
  // Two long sleeps fill the queue (one running, one queued)...
  service.submit_line(R"({"op":"sleep","params":{"ms":300}})",
                      sink.responder());
  service.submit_line(R"({"op":"sleep","params":{"ms":300}})",
                      sink.responder());
  // ...so further submissions are rejected immediately, on this thread,
  // with the structured `overloaded` error.
  const std::int64_t t0 = obs::monotonic_us();
  std::vector<std::string> rejected;
  for (int i = 0; i < 4; ++i) {
    service.submit_line(R"({"op":"sleep","params":{"ms":1}})",
                        [&rejected](std::string line) {
                          rejected.push_back(std::move(line));
                        });
  }
  const std::int64_t reject_us = obs::monotonic_us() - t0;
  ASSERT_EQ(rejected.size(), 4u);
  for (const std::string& line : rejected) {
    EXPECT_EQ(error_code_of(line), "overloaded");
  }
  // "never blocks": 4 rejections must not take anywhere near one sleep.
  EXPECT_LT(reject_us, 250000);

  // Control ops bypass the queue and still answer while saturated.
  const util::Json status =
      util::Json::parse(service.handle_line(R"({"op":"status"})"));
  ASSERT_TRUE(status.at("ok").as_bool());
  EXPECT_EQ(status.at("result").at("rejected_overloaded").as_number(), 4.0);

  service.begin_drain();
  service.wait_idle();
  const Service::Stats stats = service.stats();
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.completed, 2u);
  EXPECT_EQ(stats.rejected_overloaded, 4u);
  EXPECT_EQ(sink.take().size(), 2u);
}

TEST(Service, DeadlineExpiryMidRequestIsTimedOut) {
  Service service(test_config());
  const std::string response = service.handle_line(
      R"({"op":"sleep","deadline_ms":40,"params":{"ms":5000}})");
  EXPECT_EQ(error_code_of(response), "timed_out");
  EXPECT_EQ(service.stats().timed_out, 1u);
}

TEST(Service, DeadlineExpiryWhileQueuedIsTimedOut) {
  Service service(test_config());  // 1 worker
  Sink sink;
  // Occupy the single worker long enough for the next request's tiny
  // deadline to lapse before it is picked up.
  service.submit_line(R"({"op":"sleep","params":{"ms":250}})",
                      sink.responder());
  const std::string response = service.handle_line(
      R"({"op":"sleep","deadline_ms":20,"params":{"ms":1}})");
  EXPECT_EQ(error_code_of(response), "timed_out");
  service.begin_drain();
  service.wait_idle();
}

TEST(Service, DrainRejectsNewWorkAndCompletesAdmitted) {
  ServiceConfig config = test_config();
  config.jobs = 2;
  config.queue_capacity = 8;
  Service service(config);
  Sink sink;
  for (int i = 0; i < 4; ++i) {
    service.submit_line(R"({"op":"sleep","params":{"ms":80}})",
                        sink.responder());
  }
  service.begin_drain();
  const std::string rejected =
      service.handle_line(R"({"op":"sleep","params":{"ms":1}})");
  EXPECT_EQ(error_code_of(rejected), "shutting_down");

  // wait_idle returning guarantees every admitted response was already
  // delivered to its responder (delivery happens-before the in-flight
  // decrement).
  service.wait_idle();
  EXPECT_EQ(sink.take().size(), 4u);
  const Service::Stats stats = service.stats();
  EXPECT_EQ(stats.completed, 4u);
  EXPECT_EQ(stats.rejected_shutting_down, 1u);
}

TEST(Service, DrainOpDrainsViaTheWire) {
  Service service(test_config());
  const util::Json drain =
      util::Json::parse(service.handle_line(R"({"op":"drain","id":"d"})"));
  ASSERT_TRUE(drain.at("ok").as_bool());
  EXPECT_TRUE(drain.at("result").at("draining").as_bool());
  EXPECT_EQ(error_code_of(service.handle_line(R"({"op":"status","id":"s",)"
                                              R"("params":{}})")),
            "");  // control ops still answered while draining
  EXPECT_EQ(error_code_of(
                service.handle_line(R"({"op":"sleep","params":{"ms":1}})")),
            "shutting_down");
}

TEST(Service, BadParamsAreBadRequests) {
  Service service(test_config());
  EXPECT_EQ(error_code_of(service.handle_line(
                R"({"op":"predict","params":{"cpu":"lots"}})")),
            "bad_request");
  EXPECT_EQ(error_code_of(service.handle_line(
                R"({"op":"predict","params":{"vcpus":4}})")),
            "bad_request");
  EXPECT_EQ(error_code_of(service.handle_line(
                R"({"op":"simulate","params":{"scenario":"[broken"}})")),
            "bad_request");
  EXPECT_EQ(error_code_of(service.handle_line(R"({"op":"simulate",)"
                                              R"("params":{}})")),
            "bad_request");  // scenario text is required
  const Service::Stats stats = service.stats();
  EXPECT_EQ(stats.failed, 4u);
  EXPECT_EQ(stats.completed, 0u);
}

TEST(Service, HugeDeadlineIsClampedToTheMaximum) {
  // A deadline past every bound gets max_deadline_ms, never the (here
  // much shorter) default, even where an int64 cast of it is undefined.
  ServiceConfig config = test_config();
  config.default_deadline_ms = 30;
  config.max_deadline_ms = 5000;
  Service service(config);
  for (const char* deadline : {"1e300", "1e19", "1000"}) {
    EXPECT_EQ(error_code_of(service.handle_line(
                  std::string(R"({"op":"sleep","deadline_ms":)") + deadline +
                  R"(,"params":{"ms":100}})")),
              "")
        << deadline;
  }
  EXPECT_EQ(error_code_of(service.handle_line(
                R"({"op":"sleep","params":{"ms":100}})")),
            "timed_out");
}

TEST(Service, OutOfRangeIntegerParamsAreBadRequests) {
  // Checked before any cast (and before any training or simulation).
  Service service(test_config());
  for (const char* v : {"1e20", "2147483648", "-1e20", "2.5"}) {
    const std::string value(v);
    for (const std::string& line :
         {R"({"op":"predict","params":{"seed":)" + value + "}}",
          R"({"op":"predict","params":{"vms":)" + value + "}}",
          R"({"op":"simulate","params":{"scenario":"[cluster]",)"
          R"("replications":)" + value + "}}"}) {
      EXPECT_EQ(error_code_of(service.handle_line(line)), "bad_request")
          << line;
    }
  }
  EXPECT_EQ(service.stats().completed, 0u);
}

TEST(Service, SleepOpIsGatedBehindTestOps) {
  ServiceConfig config = test_config();
  config.enable_test_ops = false;
  Service service(config);
  EXPECT_EQ(error_code_of(
                service.handle_line(R"({"op":"sleep","params":{"ms":1}})")),
            "bad_request");
}

// The acceptance bar of the PR: predictions served concurrently through
// the service are byte-identical to the library path, whatever --jobs.
TEST(Service, ConcurrentPredictionsMatchLibraryByteForByte) {
  ServiceConfig config = test_config();
  config.jobs = 3;
  config.queue_capacity = 16;
  Service service(config);

  const std::string request =
      R"({"op":"predict","id":"p","params":)"
      R"({"cpu":40,"mem":512,"io":100,"bw":2000,"vms":2}})";
  constexpr int kClients = 8;
  std::vector<std::string> responses(kClients);
  util::TaskPool clients(kClients, util::TaskPool::Threading::kAlwaysThreaded);
  clients.parallel_for_each(kClients, [&service, &request,
                                       &responses](std::size_t i) {
    responses[i] = service.handle_line(request);
  });

  // The library-side answer, computed through the same process-wide
  // cache with the same training key the service uses.
  const model::TrainedModels& models = runner::model_cache().get(
      model::RegressionMethod::kLms, util::seconds(config.train_duration_s),
      config.default_seed, config.inner_jobs);
  const std::string expected = ok_response(
      "p", predict_result_json(models, model::UtilVec{40, 512, 100, 2000}, 2));
  for (const std::string& line : responses) {
    EXPECT_EQ(line, expected);
  }
}

TEST(Service, MetricsOpReportsTheRegistryWhileSaturated) {
  Service service(test_config());  // 1 worker, 2 admission slots
  constexpr int kPredicts = 3;
  for (int i = 0; i < kPredicts; ++i) {
    ASSERT_EQ(error_code_of(service.handle_line(
                  R"({"op":"predict","params":)"
                  R"({"cpu":40,"mem":512,"io":100,"bw":2000,"vms":1}})")),
              "");
  }
  // Saturate: one sleep running, one queued.
  Sink sink;
  service.submit_line(R"({"op":"sleep","params":{"ms":300}})",
                      sink.responder());
  service.submit_line(R"({"op":"sleep","params":{"ms":300}})",
                      sink.responder());

  // `metrics` bypasses the full queue and answers on this thread.
  const std::int64_t t0 = obs::monotonic_us();
  const util::Json doc =
      util::Json::parse(service.handle_line(R"({"op":"metrics","id":"m"})"));
  EXPECT_LT(obs::monotonic_us() - t0, 250000);
  ASSERT_TRUE(doc.at("ok").as_bool());
  EXPECT_EQ(doc.at("id").as_string(), "m");
  const util::Json& result = doc.at("result");
  EXPECT_EQ(result.at("schema").as_string(), "voprof-metrics-1");
  const util::Json& metrics = result.at("metrics");
  ASSERT_NE(metrics.find("serve.completed"), nullptr);
  if (obs::kObsCompiled) {
    EXPECT_GE(metrics.at("serve.completed").as_number(),
              static_cast<double>(kPredicts));
  }

  service.begin_drain();
  service.wait_idle();
  EXPECT_EQ(sink.take().size(), 2u);
}

// -------------------------------------------------------------- daemon
TEST(Daemon, SocketRoundTripDrainAndMalformedLine) {
  DaemonConfig config;
  config.socket_path = ::testing::TempDir() + "voprofd_test.sock";
  config.install_signal_handlers = false;  // in-process: no global traps
  config.service = test_config();

  Daemon daemon(config);
  util::TaskPool runner_thread(1, util::TaskPool::Threading::kAlwaysThreaded);
  std::future<bool> outcome = runner_thread.submit([&daemon]() {
    const util::Result<bool> result = daemon.run();
    return result.ok();
  });

  // The daemon unlinks stale sockets itself; connect with retries while
  // the listener comes up.
  util::Result<LineClient> client = LineClient::connect(config.socket_path);
  for (int i = 0; i < 200 && !client.ok(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    client = LineClient::connect(config.socket_path);
  }
  ASSERT_TRUE(client.ok()) << client.error().to_string();

  const auto status =
      client.value().roundtrip(R"({"op":"status","id":"s1"})", 5000);
  ASSERT_TRUE(status.ok()) << status.error().to_string();
  const util::Json doc = util::Json::parse(status.value());
  EXPECT_TRUE(doc.at("ok").as_bool());
  EXPECT_EQ(doc.at("id").as_string(), "s1");

  const auto bad = client.value().roundtrip("{not json", 5000);
  ASSERT_TRUE(bad.ok());
  EXPECT_EQ(error_code_of(bad.value()), "bad_request");

  const auto sleep_resp = client.value().roundtrip(
      R"({"op":"sleep","id":"z","params":{"ms":30}})", 5000);
  ASSERT_TRUE(sleep_resp.ok());
  EXPECT_EQ(error_code_of(sleep_resp.value()), "");

  // Drain over the wire: the daemon answers, finishes and exits run().
  const auto drain = client.value().roundtrip(R"({"op":"drain"})", 5000);
  ASSERT_TRUE(drain.ok());
  EXPECT_TRUE(outcome.get());
  EXPECT_FALSE(daemon.running());
}

TEST(Daemon, RequestStopDrainsWithWorkInFlight) {
  DaemonConfig config;
  config.socket_path = ::testing::TempDir() + "voprofd_test2.sock";
  config.install_signal_handlers = false;
  config.service = test_config();
  config.service.jobs = 2;
  config.service.queue_capacity = 8;

  Daemon daemon(config);
  util::TaskPool runner_thread(1, util::TaskPool::Threading::kAlwaysThreaded);
  std::future<bool> outcome = runner_thread.submit([&daemon]() {
    const util::Result<bool> result = daemon.run();
    return result.ok();
  });

  util::Result<LineClient> client = LineClient::connect(config.socket_path);
  for (int i = 0; i < 200 && !client.ok(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    client = LineClient::connect(config.socket_path);
  }
  ASSERT_TRUE(client.ok()) << client.error().to_string();

  // Pipeline three requests, then stop the daemon while they run. All
  // admitted work must still be answered (request_stop == SIGTERM path).
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(client.value()
                    .send_line(R"({"op":"sleep","id":"w","params":{"ms":60}})")
                    .ok());
  }
  // Lines on one connection are admitted in arrival order, so once the
  // pipelined status answer is back the three sleeps are in flight —
  // only then is stopping a test of drain rather than of unread bytes.
  ASSERT_TRUE(client.value().send_line(R"({"op":"status","id":"s"})").ok());
  int sleeps_answered = 0;
  bool status_seen = false;
  while (!status_seen) {
    const auto response = client.value().recv_line(5000);
    ASSERT_TRUE(response.ok()) << response.error().to_string();
    const util::Json doc = util::Json::parse(response.value());
    ASSERT_TRUE(doc.at("ok").as_bool());
    if (doc.at("id").as_string() == "s") {
      status_seen = true;
    } else {
      ++sleeps_answered;  // a sleep that finished before the status
    }
  }
  daemon.request_stop();
  while (sleeps_answered < 3) {
    const auto response = client.value().recv_line(5000);
    ASSERT_TRUE(response.ok()) << response.error().to_string();
    EXPECT_EQ(error_code_of(response.value()), "");
    ++sleeps_answered;
  }
  EXPECT_TRUE(outcome.get());
  const Service::Stats stats = daemon.service().stats();
  EXPECT_EQ(stats.completed, 3u);
}

TEST(Daemon, RefusesToClobberARegularFile) {
  const std::string path = ::testing::TempDir() + "voprofd_notasock";
  {
    std::ofstream out(path);
    out << "precious data\n";
  }
  DaemonConfig config;
  config.socket_path = path;
  config.install_signal_handlers = false;
  Daemon daemon(config);
  const util::Result<bool> outcome = daemon.run();
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code, util::Errc::kIo);
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "precious data");  // untouched
}

}  // namespace
}  // namespace voprof::serve
