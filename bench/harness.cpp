#include "harness.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <thread>
#include <utility>

#include "voprof/obs/trace.hpp"
#include "voprof/util/assert.hpp"
#include "voprof/util/result.hpp"

#if defined(__GLIBC__)
#include <errno.h>  // program_invocation_short_name
#endif

namespace voprof::bench::harness {

namespace {

bool json_disabled() {
  const char* raw = std::getenv("VOPROF_BENCH_JSON");
  return raw != nullptr && std::string(raw) == "0";
}

double now_wall_s() {
  using clock = std::chrono::steady_clock;
  return std::chrono::duration<double>(clock::now().time_since_epoch())
      .count();
}

util::Json stats_json(const Stats& s) {
  util::Json o = util::Json::object();
  o.set("min", s.min);
  o.set("p10", s.p10);
  o.set("median", s.median);
  o.set("p90", s.p90);
  o.set("max", s.max);
  o.set("mean", s.mean);
  return o;
}

}  // namespace

Stats Stats::of(std::vector<double> xs) {
  VOPROF_REQUIRE_MSG(!xs.empty(), "Stats::of needs at least one sample");
  std::sort(xs.begin(), xs.end());
  const auto quantile = [&xs](double q) {
    // Nearest-rank with linear interpolation between adjacent samples.
    const double pos = q * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return xs[lo] * (1.0 - frac) + xs[hi] * frac;
  };
  Stats s;
  s.min = xs.front();
  s.p10 = quantile(0.10);
  s.median = quantile(0.50);
  s.p90 = quantile(0.90);
  s.max = xs.back();
  double sum = 0.0;
  for (const double x : xs) sum += x;
  s.mean = sum / static_cast<double>(xs.size());
  return s;
}

EnvInfo capture_env() {
  EnvInfo env;
#if defined(__clang__)
  env.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  env.compiler = std::string("gcc ") + std::to_string(__GNUC__) + "." +
                 std::to_string(__GNUC_MINOR__) + "." +
                 std::to_string(__GNUC_PATCHLEVEL__);
#else
  env.compiler = "unknown";
#endif
#ifdef VOPROF_BUILD_TYPE
  env.build_type = VOPROF_BUILD_TYPE;
#else
  env.build_type = "unknown";
#endif
#ifdef VOPROF_SANITIZE_STR
  env.sanitizers = VOPROF_SANITIZE_STR;
#endif
#ifdef VOPROF_GIT_DESCRIBE
  env.git_describe = VOPROF_GIT_DESCRIBE;
#else
  env.git_describe = "unknown";
#endif
#ifdef VOPROF_CXX_FLAGS
  env.cxx_flags = VOPROF_CXX_FLAGS;
#endif
#if defined(__linux__)
  env.os = "linux";
#elif defined(__APPLE__)
  env.os = "darwin";
#else
  env.os = "unknown";
#endif
  env.hardware_threads =
      static_cast<int>(std::thread::hardware_concurrency());
  const std::time_t t = std::time(nullptr);
  std::tm tm{};
  if (gmtime_r(&t, &tm) != nullptr) {
    char buf[32];
    std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
    env.timestamp_utc = buf;
  }
  return env;
}

Session::Session(std::string binary_name)
    : binary_name_(std::move(binary_name)), env_(capture_env()) {}

Session::~Session() {
  if (auto_write_) (void)write_file();
}

void Session::bench(const std::string& name, BenchOptions opt,
                    const std::function<RepResult()>& body) {
  for (int i = 0; i < opt.warmup; ++i) (void)body();

  Measurement m;
  m.name = name;
  m.warmup = opt.warmup;
  m.reps = opt.reps;
  m.wall_s.reserve(static_cast<std::size_t>(opt.reps));
  for (int i = 0; i < opt.reps; ++i) {
    const obs::WallSpan span("bench", name.c_str());
    const double t0 = now_wall_s();
    const RepResult rep = body();
    const double wall = std::max(1e-12, now_wall_s() - t0);
    m.wall_s.push_back(wall);
    m.sim_s = rep.sim_s;
    m.checksum = rep.checksum;
    if (rep.sim_s > 0.0) m.throughput.push_back(rep.sim_s / wall);
  }
  measurements_.push_back(std::move(m));
  dirty_ = true;
}

void Session::record_section(const std::string& name, double wall_s,
                             double sim_s, double checksum) {
  Measurement m;
  m.name = name;
  m.warmup = 0;
  m.reps = 1;
  m.sim_s = sim_s;
  m.checksum = checksum;
  m.wall_s.push_back(std::max(1e-12, wall_s));
  if (sim_s > 0.0) m.throughput.push_back(sim_s / m.wall_s.back());
  measurements_.push_back(std::move(m));
  dirty_ = true;
}

std::string Session::next_section_name(const std::string& hint) {
  return hint + "#" + std::to_string(section_counter_++);
}

util::Json Session::to_json() const {
  util::Json root = util::Json::object();
  root.set("schema", "voprof-bench-1");
  root.set("binary", binary_name_);

  util::Json env = util::Json::object();
  env.set("compiler", env_.compiler);
  env.set("build_type", env_.build_type);
  env.set("sanitizers", env_.sanitizers);
  env.set("git_describe", env_.git_describe);
  env.set("cxx_flags", env_.cxx_flags);
  env.set("os", env_.os);
  env.set("hardware_threads", env_.hardware_threads);
  env.set("timestamp_utc", env_.timestamp_utc);
  root.set("env", std::move(env));

  util::Json benches = util::Json::array();
  for (const Measurement& m : measurements_) {
    util::Json b = util::Json::object();
    b.set("name", m.name);
    b.set("warmup", m.warmup);
    b.set("reps", m.reps);
    b.set("sim_s", m.sim_s);
    b.set("checksum", m.checksum);
    b.set("wall_s", stats_json(Stats::of(m.wall_s)));
    util::Json raw = util::Json::array();
    for (const double w : m.wall_s) raw.push_back(w);
    b.set("raw_wall_s", std::move(raw));
    if (!m.throughput.empty()) {
      b.set("throughput_sim_s_per_wall_s", stats_json(Stats::of(m.throughput)));
    }
    benches.push_back(std::move(b));
  }
  root.set("benchmarks", std::move(benches));
  return root;
}

std::string Session::output_path() const {
  std::string stem = binary_name_;
  if (stem.rfind("bench_", 0) == 0) stem = stem.substr(6);
  if (stem.empty()) stem = "unnamed";
  const char* dir = std::getenv("VOPROF_BENCH_DIR");
  std::string path = (dir != nullptr && *dir != '\0') ? dir : ".";
  if (path.back() != '/') path += '/';
  return path + "BENCH_" + stem + ".json";
}

bool Session::write_file() {
  if (!dirty_ || json_disabled()) return true;
  dirty_ = false;
  const std::string path = output_path();
  std::ofstream out(path);
  if (out) {
    out << to_json().dump(2) << '\n';
    out.close();
  }
  if (!out) {
    std::fprintf(stderr, "harness: cannot write %s\n", path.c_str());
    return false;
  }
  return true;
}

int finish(int rc) {
  bool ok = Session::global().write_file();
  obs::TraceCollector& trace = obs::TraceCollector::global();
  if (trace.enabled()) {
    const util::Result<bool> written = trace.write_file();
    if (!written.ok()) {
      std::fprintf(stderr, "voprof trace: %s\n",
                   written.error().to_string().c_str());
      ok = false;
    }
  }
  return ok || rc != 0 ? rc : 1;
}

tools::CommandLine command_line(const char* argv0,
                                const std::string& synopsis,
                                std::vector<util::FlagSpec> flags) {
  flags.push_back({"trace-out"});
  std::string usage = std::string("usage: ") + argv0 + ' ';
  if (!synopsis.empty()) usage += synopsis + ' ';
  return {argv0, usage + "[--trace-out FILE]\n", std::move(flags), 0};
}

void parse_cli_or_exit(int argc, const char* const* argv) {
  (void)command_line(argv[0]).parse_or_exit(
      std::vector<std::string>(argv + 1, argv + argc));
}

Session& Session::global() {
  static Session session([] {
#if defined(__GLIBC__)
    if (program_invocation_short_name != nullptr &&
        *program_invocation_short_name != '\0') {
      return std::string(program_invocation_short_name);
    }
#endif
    return std::string("bench");
  }());
  return session;
}

}  // namespace voprof::bench::harness
