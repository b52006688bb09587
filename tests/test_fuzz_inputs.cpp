/// Deterministic mutation fuzzing of every reader of outside input:
/// the voprof-api-1 request envelope, scenario INI, models files (plain
/// and typed), observation CSV, trace JSON and BENCH records. The seed
/// corpus is built only from inputs in the repository or written by
/// voprof itself; a fixed util::Rng seed and iteration budget make each
/// run the same. Every mutated input must come back as a Result: no
/// reader may throw, crash or trip a sanitizer (the asan-ubsan build
/// runs this file like every other test).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <exception>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_diff.hpp"
#include "harness.hpp"
#include "trace_cmd.hpp"
#include "voprof/core/serialize.hpp"
#include "voprof/obs/trace.hpp"
#include "voprof/scenario/scenario.hpp"
#include "voprof/serve/api.hpp"
#include "voprof/serve/service.hpp"
#include "voprof/util/csv.hpp"
#include "voprof/util/json.hpp"
#include "voprof/util/rng.hpp"

namespace voprof {
namespace {

/// Mutations tried per seed input.
constexpr int kIterations = 1500;

/// Fragments the mutator splices in: the grammar's delimiters plus
/// values that stress number conversion.
const std::vector<std::string> kTokens = {
    "[", "]", "{", "}", "\"", ",", ":", "=", "\n", "[vm x]", "fit ", "1e999",
    "-1", "1e20", "-1e20", "nan", "inf", "0.5", "\\u00e9", "\\", " ", "#"};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// One to four random edits of `text`.
std::string mutate(std::string text, util::Rng& rng) {
  const auto pos = [&](std::size_t extra) {
    return static_cast<std::size_t>(rng.uniform_int(text.size() + extra));
  };
  const std::uint64_t edits = 1 + rng.uniform_int(4);
  for (std::uint64_t e = 0; e < edits; ++e) {
    switch (rng.uniform_int(5)) {
      case 0:  // overwrite one byte
        if (!text.empty()) {
          text[pos(0)] = static_cast<char>(rng.uniform_int(256));
        }
        break;
      case 1:  // splice in a token
        text.insert(pos(1), kTokens[rng.uniform_int(kTokens.size())]);
        break;
      case 2: {  // erase a short run
        const std::size_t at = pos(1);
        text.erase(at, static_cast<std::size_t>(rng.uniform_int(16)));
        break;
      }
      case 3: {  // duplicate a short run
        const std::size_t at = pos(1);
        const std::string run =
            text.substr(at, static_cast<std::size_t>(rng.uniform_int(32)));
        text.insert(pos(1), run);
        break;
      }
      default:  // truncate
        text.resize(pos(1));
        break;
    }
  }
  return text;
}

/// A small synthetic training set (Table II shape: 1, 2 and 4 VMs).
model::TrainingSet training_set() {
  util::Rng rng(5);
  model::TrainingSet data;
  for (const int n : {1, 2, 4}) {
    for (int i = 0; i < 30; ++i) {
      model::TrainingRow r;
      r.n_vms = n;
      r.vm_sum = model::UtilVec{rng.uniform(0, 100.0 * n),
                                rng.uniform(80, 150.0 * n),
                                rng.uniform(0, 90.0 * n),
                                rng.uniform(0, 1280.0 * n)};
      r.dom0_cpu = 16.8 + 0.05 * r.vm_sum.cpu + rng.gaussian(0, 0.1);
      r.hyp_cpu = 3.0 + 0.04 * r.vm_sum.cpu + rng.gaussian(0, 0.05);
      r.pm = model::UtilVec{r.vm_sum.cpu + r.dom0_cpu + r.hyp_cpu,
                            752.0 + r.vm_sum.mem, 18.8 + 2.05 * r.vm_sum.io,
                            2.0 + r.vm_sum.bw + n};
      data.add(std::move(r));
    }
  }
  return data;
}

/// A typed (heterogeneous) model over two VM types.
model::HeteroModel hetero_model() {
  util::Rng rng(6);
  model::HeteroTrainingSet data;
  for (int i = 0; i < 80; ++i) {
    model::HeteroRow r;
    model::UtilVec grand;
    for (const char* type : {"A", "B"}) {
      model::TypeObservation o;
      o.count = 1 + static_cast<int>(rng.uniform_int(2));
      o.sum = model::UtilVec{rng.uniform(0, 100), rng.uniform(80, 150),
                             rng.uniform(0, 90), rng.uniform(0, 600)};
      grand += o.sum;
      r.types[type] = o;
    }
    r.pm = model::UtilVec{20 + 1.3 * grand.cpu + rng.gaussian(0, 0.1),
                          752 + grand.mem, 18.8 + 2.05 * grand.io,
                          2.0 + grand.bw};
    r.dom0_cpu = 16.8 + 0.05 * grand.cpu + rng.gaussian(0, 0.1);
    r.hyp_cpu = 3.0 + 0.03 * grand.cpu + rng.gaussian(0, 0.05);
    data.add(std::move(r));
  }
  return model::HeteroModel::fit(data, model::RegressionMethod::kOls);
}

/// A trace as obs::TraceCollector writes it, less the metrics registry
/// snapshot: its values depend on what else ran in the process, and
/// the corpus must be the same bytes on every run.
util::Json trace_document() {
  auto& collector = obs::TraceCollector::global();
  collector.disable();
  collector.enable("unused_fuzz_trace.json");
  collector.complete_wall("runner", "SweepRunner.map", 0, 4000);
  collector.complete_sim("scheduler", "contention", 0, 250000, /*tid=*/0,
                         110.0);
  collector.instant_sim("vm", "vm-created", 10, /*tid=*/0, 0.0, "vm1");
  util::Json doc = collector.to_json();
  collector.disable();
  util::Json events = util::Json::array();
  for (const util::Json& e : doc.at("traceEvents").as_array()) {
    if (e.at("ph").as_string() != "C") events.push_back(e);
  }
  doc.set("traceEvents", std::move(events));
  doc.set("voprofMetrics", util::Json::object());
  return doc;
}

/// A voprof-bench-1 record as the bench harness writes it, with fixed
/// timings and no build or clock fields, for the same reason.
util::Json bench_record() {
  bench::harness::Session session("bench_fuzz");
  session.record_section("sweep#0", 0.5, 2.5, 123.0);
  session.record_section("fit_ols", 0.25);
  util::Json doc = session.to_json();
  doc.set("env", util::Json::object());
  return doc;
}

/// The `simulate` result of a one-machine scenario, as served.
util::Json simulate_result() {
  const scenario::ScenarioSpec spec =
      scenario::ScenarioSpec::parse_result(
          "[cluster]\nmachines = 1\n[vm a]\nmachine = 0\ncpu = 40\n"
          "[monitor]\nmachine = 0\n[run]\nduration = 3\n")
          .value();
  return serve::simulate_result_json(
      scenario::run_scenario_replicated(spec, 1, 1));
}

/// One reader of outside input, fed a seed input and its mutations.
struct Target {
  std::string name;
  std::string seed;
  std::function<void(const std::string&)> read;
};

/// Parse JSON; whatever parses must dump and parse back to the same
/// bytes.
util::Result<util::Json> read_json(const std::string& text) {
  util::Result<util::Json> doc = util::Json::parse_result(text);
  if (doc.ok()) {
    const std::string dumped = doc.value().dump(0);
    const util::Result<util::Json> again = util::Json::parse_result(dumped);
    EXPECT_TRUE(again.ok() && again.value().dump(0) == dumped) << dumped;
  }
  return doc;
}

std::vector<Target> targets() {
  std::vector<Target> out;
  for (const char* conf : {"intra_pm_traffic", "noisy_neighbour",
                           "single_vm_cpu_sweep", "trace_replay"}) {
    out.push_back({std::string("scenario ") + conf,
                   slurp(std::string(VOPROF_SOURCE_DIR "/scenarios/") + conf +
                         ".conf"),
                   [](const std::string& text) {
                     (void)scenario::ScenarioSpec::parse_result(text);
                   }});
  }
  const model::TrainingSet data = training_set();
  out.push_back({"models",
                 model::models_to_string(model::Trainer::fit_models(
                     data, model::RegressionMethod::kOls)),
                 [](const std::string& text) {
                   (void)model::models_from_string_result(text);
                 }});
  out.push_back({"typed models", model::hetero_model_to_string(hetero_model()),
                 [](const std::string& text) {
                   (void)model::hetero_model_from_string_result(text);
                 }});
  out.push_back({"observation csv", model::training_set_to_csv(data).str(),
                 [](const std::string& text) {
                   const util::Result<util::CsvDocument> csv =
                       util::CsvDocument::parse_string_result(text);
                   if (csv.ok()) {
                     (void)model::training_set_from_csv(csv.value());
                   }
                 }});
  out.push_back({"trace", trace_document().dump(0),
                 [](const std::string& text) {
                   const util::Result<util::Json> doc = read_json(text);
                   if (doc.ok()) (void)tools::summarize_trace(doc.value());
                 }});
  out.push_back({"bench record", bench_record().dump(2),
                 [](const std::string& text) {
                   const util::Result<util::Json> doc = read_json(text);
                   if (doc.ok()) {
                     (void)tools::bench_diff(doc.value(), doc.value(), 0.25);
                   }
                 }});
  // Request lines go through the envelope parser only, so no mutated
  // line can start a training run.
  for (const char* line :
       {R"({"api":"voprof-api-1","id":"p1","op":"predict","deadline_ms":2500,)"
        R"("params":{"cpu":40,"mem":512,"io":10,"bw":100,"vms":2}})",
        R"({"op":"simulate","params":{"scenario":"[vm a]\nmachine = 0\n",)"
        R"("replications":2}})",
        R"({"op":"status","id":"s"})",
        R"({"id":"t","op":"train","params":{"method":"ols","duration":1}})"}) {
    out.push_back({"request", line, [](const std::string& text) {
                     (void)read_json(text);
                     (void)serve::parse_request(text);
                   }});
  }
  // Far deeper than any document voprof writes; a random mutator would
  // never build it.
  out.push_back({"deep request",
                 R"({"api":"voprof-api-1","op":"status","params":)" +
                     std::string(200000, '['),
                 [](const std::string& text) {
                   (void)read_json(text);
                   (void)serve::parse_request(text);
                 }});
  return out;
}

TEST(FuzzInputs, EveryReaderReturnsAResultOnMutatedInput) {
  std::uint64_t seed = 0;
  for (const Target& t : targets()) {
    util::Rng rng(++seed);
    for (int i = 0; i <= kIterations; ++i) {
      // Iteration 0 feeds the unmutated seed.
      const std::string input = i == 0 ? t.seed : mutate(t.seed, rng);
      try {
        t.read(input);
      } catch (const std::exception& e) {
        ADD_FAILURE() << t.name << " threw on mutation " << i << ": "
                      << e.what() << "\ninput: " << input.substr(0, 400);
        break;
      }
      if (::testing::Test::HasFailure()) {
        ADD_FAILURE() << t.name << " failed on mutation " << i
                      << "\ninput: " << input.substr(0, 400);
        return;
      }
    }
  }
}

/// Arrays and objects nested in `v`, counting `v` itself.
int depth(const util::Json& v) {
  int inner = 0;
  if (v.is_array()) {
    for (const util::Json& e : v.as_array()) inner = std::max(inner, depth(e));
  } else if (v.is_object()) {
    for (const auto& [key, e] : v.as_object()) {
      inner = std::max(inner, depth(e));
    }
  } else {
    return 0;
  }
  return inner + 1;
}

TEST(FuzzInputs, EveryJsonWriterStaysFarBelowTheDepthBound) {
  const model::TrainedModels models = model::Trainer::fit_models(
      training_set(), model::RegressionMethod::kOls);
  const std::vector<std::pair<std::string, std::string>> written = {
      {"trace", trace_document().dump(2)},
      {"metrics", serve::metrics_json().dump(2)},
      {"bench record", bench_record().dump(2)},
      {"predict response",
       serve::ok_response("p", serve::predict_result_json(
                                   models, model::UtilVec{40, 512, 10, 100},
                                   2))},
      {"simulate response", serve::ok_response("s", simulate_result())},
      {"error response",
       serve::error_response("e", serve::ApiError::kBadRequest, "no")}};
  for (const auto& [name, text] : written) {
    const util::Result<util::Json> doc = util::Json::parse_result(text);
    ASSERT_TRUE(doc.ok()) << name << ": " << doc.error().to_string();
    EXPECT_LE(depth(doc.value()) * 16, util::Json::kMaxDepth) << name;
  }
}

}  // namespace
}  // namespace voprof
