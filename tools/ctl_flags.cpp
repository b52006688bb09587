#include "ctl_flags.hpp"

#include "voprof/runner/runner.hpp"

namespace voprof::tools {

namespace {

constexpr auto kText = util::FlagSpec::Kind::kText;
constexpr auto kNumber = util::FlagSpec::Kind::kNumber;
constexpr auto kInteger = util::FlagSpec::Kind::kInteger;
constexpr auto kSwitch = util::FlagSpec::Kind::kSwitch;
constexpr auto kNone = util::FlagSpec::Bound::kNone;
constexpr auto kNonNegative = util::FlagSpec::Bound::kNonNegative;
constexpr auto kPositive = util::FlagSpec::Bound::kPositive;

/// A text flag every command line must carry.
util::FlagSpec required(const char* name) {
  return {name, kText, kNone, true};
}

/// Text flags whose value is one of these choices.
const util::FlagSpec kMethod{"method", kText, kNone, false, {"lms", "ols"}};
const util::FlagSpec kFormat{"format", kText, kNone, false,
                             {"table", "csv", "json"}};
/// Numeric flags every command that has them bounds the same way.
const util::FlagSpec kJobs = runner::jobs_flag();
const util::FlagSpec kSeed{"seed", kInteger, kNonNegative};
const util::FlagSpec kDuration{"duration", kNumber, kPositive};
const util::FlagSpec kVms{"vms", kInteger, kPositive};

}  // namespace

/// The whole CLI surface. Cross-cutting flags keep one spelling:
/// --jobs (parallelism), --seed, --format table|csv|json, --trace-out
/// (observability trace file, everywhere; observation-CSV inputs are
/// --observations).
const std::vector<CommandEntry>& command_table() {
  static const std::vector<CommandEntry> table = {
      {"train",
       {required("out"), kMethod, kDuration, kSeed, kJobs, {"trace-out"}},
       "  train         run the micro-benchmark sweep and fit the models\n"
       "                  --out FILE [--method lms|ols] [--duration SEC]\n"
       "                  [--seed N] [--jobs N] [--trace-out FILE]\n"},
      {"export-trace",
       {required("out"), kDuration, kSeed, kJobs, {"trace-out"}},
       "  export-trace  dump sweep observations as CSV\n"
       "                  --out FILE [--duration SEC] [--seed N] [--jobs N]\n"
       "                  [--trace-out FILE]\n"},
      {"fit",
       {required("observations"), required("out"), kMethod, {"trace-out"}},
       "  fit           fit models from an observation CSV\n"
       "                  --observations FILE --out FILE [--method lms|ols]\n"
       "                  [--trace-out FILE]\n"},
      {"predict",
       {required("models"), {"cpu", kNumber, kNonNegative},
        {"mem", kNumber, kNonNegative}, {"io", kNumber, kNonNegative},
        {"bw", kNumber, kNonNegative}, kVms, kFormat, {"trace-out"}},
       "  predict       predict PM utilization from summed VM metrics\n"
       "                  --models FILE [--cpu PCT] [--mem MIB] [--io BLKS]\n"
       "                  [--bw KBPS] [--vms N] [--format table|csv|json]\n"
       "                  [--trace-out FILE]\n"},
      {"profile",
       {{"kind", kText, kNone, true, {"cpu", "mem", "io", "bw"}},
        {"value", kNumber, kNonNegative}, kVms, kDuration, kSeed, kFormat,
        {"trace-out"}},
       "  profile       measure one workload cell\n"
       "                  --kind cpu|mem|io|bw [--value V] [--vms N]\n"
       "                  [--duration SEC] [--seed N]\n"
       "                  [--format table|csv|json] [--trace-out FILE]\n"},
      {"rubis",
       {required("models"), {"clients", kInteger, kNonNegative}, kDuration,
        {"trace-out"}},
       "  rubis         RUBiS prediction-accuracy run\n"
       "                  --models FILE [--clients N] [--duration SEC]\n"
       "                  [--trace-out FILE]\n"},
      {"inspect",
       {required("observations"), kMethod,
        {"resamples", kInteger, kPositive}, {"trace-out"}},
       "  inspect       bootstrap confidence intervals for the model\n"
       "                  coefficients fitted from an observation CSV\n"
       "                  --observations FILE [--method lms|ols]\n"
       "                  [--resamples N] [--trace-out FILE]\n"},
      {"simulate",
       {required("scenario"), {"replications", kInteger, kPositive}, kJobs,
        kSeed, kFormat, {"series-out"}, {"trace-out"}},
       "  simulate      run a declarative scenario (INI) and print the\n"
       "                  measured utilizations\n"
       "                  --scenario FILE [--series-out OUT.csv]\n"
       "                  [--replications N] [--jobs N] [--seed N]\n"
       "                  [--format table|csv|json] [--trace-out FILE]\n"},
      {"serve",
       {required("socket"), kJobs, {"queue-capacity", kInteger, kPositive},
        {"default-deadline-ms", kInteger, kPositive},
        {"max-deadline-ms", kInteger, kPositive},
        {"train-duration", kNumber, kPositive}, kSeed,
        {"inner-jobs", kInteger, kNonNegative}, {"enable-test-ops", kSwitch},
        {"metrics-out"}, {"trace-out"}},
       "  serve         run the voprofd daemon (see `voprofd --help`)\n"
       "                  --socket PATH [--jobs N] [--queue-capacity N]\n"
       "                  [--default-deadline-ms MS] [--max-deadline-ms MS]\n"
       "                  [--train-duration SEC] [--seed N] [--inner-jobs N]\n"
       "                  [--metrics-out FILE] [--trace-out FILE]\n"
       "                  [--enable-test-ops]\n"},
      {"request",
       {required("socket"), required("op"), {"params"}, {"id"},
        {"deadline-ms", kInteger, kNonNegative},
        {"timeout-ms", kInteger, kPositive}},
       "  request       send one voprof-api-1 request to a daemon\n"
       "                  --socket PATH --op OP [--params JSON] [--id ID]\n"
       "                  [--deadline-ms MS] [--timeout-ms MS]\n"},
      {"bench-diff",
       {required("baseline"), required("current"),
        {"threshold", kNumber, kPositive}, {"report-improvement", kSwitch}},
       "  bench-diff    compare two BENCH_*.json perf records\n"
       "                  --baseline FILE --current FILE\n"
       "                  [--threshold FRAC] [--report-improvement]\n"
       "                  exit 0 = ok, 1 = regression, 2 = bad input,\n"
       "                  4 = improvement (with --report-improvement)\n"},
      {"trace",
       {{"limit", kInteger, kNonNegative}, {"out"}},
       "  trace         digest an exported observability trace\n"
       "                  trace summary FILE   per-category time table\n"
       "                  trace top FILE [--limit N]\n"
       "                                       busiest spans by total time\n"
       "                  trace export FILE [--out OUT.csv]\n"
       "                                       per-span aggregates as CSV\n",
       2},
      {"version",
       {},
       "  version       print the build identity (compiler, flags,\n"
       "                  git describe, observability state)\n"},
      {"help",
       {},
       "  help          print this text (so do --help and -h, also\n"
       "                  after a command)\n"},
  };
  return table;
}

const CommandEntry* find_command(const std::string& name) {
  for (const CommandEntry& e : command_table()) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

std::string voprofctl_usage() {
  std::string out =
      "usage: voprofctl <command> [flags]\n"
      "commands:\n";
  for (const CommandEntry& e : command_table()) out += e.usage;
  return out +
         "--trace-out FILE writes an observability trace of the command;\n"
         "VOPROF_TRACE=FILE does the same for any command\n";
}

const char* const kVoprofdUsage =
    "usage: voprofd --socket PATH [--jobs N]\n"
    "  [--queue-capacity N] [--default-deadline-ms MS]\n"
    "  [--max-deadline-ms MS] [--train-duration SEC]\n"
    "  [--seed N] [--inner-jobs N] [--metrics-out FILE]\n"
    "  [--trace-out FILE] [--enable-test-ops]\n";

}  // namespace voprof::tools
