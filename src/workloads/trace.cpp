#include "voprof/workloads/trace.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "voprof/util/assert.hpp"
#include "voprof/util/rng.hpp"
#include "voprof/util/units.hpp"

namespace voprof::wl {

TraceWorkload::TraceWorkload(std::vector<TracePoint> trace,
                             sim::NetTarget bw_target, bool loop)
    : trace_(std::move(trace)), bw_target_(std::move(bw_target)),
      loop_(loop) {
  VOPROF_REQUIRE_MSG(!trace_.empty(), "trace replay needs at least one point");
  cumulative_s_.reserve(trace_.size());
  for (const TracePoint& p : trace_) {
    VOPROF_REQUIRE_MSG(p.duration_s > 0.0, "trace durations must be positive");
    VOPROF_REQUIRE(p.cpu_pct >= 0.0 && p.mem_mib >= 0.0 &&
                   p.io_blocks_per_s >= 0.0 && p.bw_kbps >= 0.0);
    total_s_ += p.duration_s;
    cumulative_s_.push_back(total_s_);
  }
}

std::size_t TraceWorkload::index_at(util::SimMicros now) const {
  double t = util::to_seconds(now);
  if (loop_) {
    t = std::fmod(t, total_s_);
  } else if (t >= total_s_) {
    return trace_.size() - 1;
  }
  const auto it =
      std::upper_bound(cumulative_s_.begin(), cumulative_s_.end(), t);
  const auto idx = static_cast<std::size_t>(it - cumulative_s_.begin());
  return std::min(idx, trace_.size() - 1);
}

sim::ProcessDemand TraceWorkload::demand(util::SimMicros now, double dt) {
  const TracePoint& p = trace_[index_at(now)];
  sim::ProcessDemand d;
  d.cpu_pct = p.cpu_pct;
  d.mem_mib = p.mem_mib;
  d.io_blocks = p.io_blocks_per_s * dt;
  if (p.bw_kbps > 0.0) {
    d.flows.push_back(sim::NetFlow{p.bw_kbps * dt, bw_target_});
  }
  return d;
}

std::string TraceWorkload::label() const {
  return "trace-replay(" + std::to_string(trace_.size()) + " points" +
         (loop_ ? ", looping)" : ")");
}

util::Result<std::vector<TracePoint>> trace_from_csv(
    const util::CsvDocument& csv, const std::string& prefix,
    double interval_s) {
  VOPROF_REQUIRE(interval_s > 0.0);
  const auto invalid = [](const std::string& what, const std::string& at) {
    return util::Error{util::Errc::kValidation, what, at};
  };
  const std::string cpu_col = prefix + "cpu";
  const std::string mem_col = prefix + "mem";
  const std::string io_col = prefix + "io";
  const std::string bw_col = prefix + "bw";
  if (!csv.has_column(cpu_col)) {
    return invalid("trace CSV lacks column: " + cpu_col, "header");
  }
  if (csv.row_count() == 0) return invalid("trace CSV has no rows", "header");
  std::vector<TracePoint> out;
  out.reserve(csv.row_count());
  for (std::size_t i = 0; i < csv.row_count(); ++i) {
    TracePoint p;
    p.duration_s = interval_s;
    p.cpu_pct = csv.at(i, cpu_col);
    if (csv.has_column(mem_col)) p.mem_mib = csv.at(i, mem_col);
    if (csv.has_column(io_col)) p.io_blocks_per_s = csv.at(i, io_col);
    if (csv.has_column(bw_col)) p.bw_kbps = csv.at(i, bw_col);
    if (!(p.cpu_pct >= 0.0 && p.mem_mib >= 0.0 && p.io_blocks_per_s >= 0.0 &&
          p.bw_kbps >= 0.0)) {
      return invalid("trace levels must be >= 0",
                     "row " + std::to_string(i + 1));
    }
    out.push_back(p);
  }
  return out;
}

std::vector<TracePoint> make_diurnal_trace(const DiurnalSpec& spec,
                                           std::uint64_t seed) {
  VOPROF_REQUIRE(spec.points >= 2);
  VOPROF_REQUIRE(spec.period_s > 0.0);
  VOPROF_REQUIRE(spec.noise_rel >= 0.0);
  VOPROF_REQUIRE(spec.cpu_peak_pct >= spec.cpu_trough_pct);
  VOPROF_REQUIRE(spec.bw_peak_kbps >= spec.bw_trough_kbps);
  VOPROF_REQUIRE(spec.io_peak_blocks >= spec.io_trough_blocks);
  util::Rng rng(seed);
  std::vector<TracePoint> out;
  out.reserve(spec.points);
  const double two_pi = 6.283185307179586;
  for (std::size_t i = 0; i < spec.points; ++i) {
    // Phase shifted so the trace starts at the trough (night).
    const double phase =
        two_pi * static_cast<double>(i) / static_cast<double>(spec.points);
    const double level = 0.5 - 0.5 * std::cos(phase);  // 0 -> 1 -> 0
    auto swing = [&](double lo, double hi) {
      const double v = lo + (hi - lo) * level;
      return std::max(0.0, v * (1.0 + spec.noise_rel * rng.gaussian()));
    };
    TracePoint p;
    p.duration_s = spec.period_s / static_cast<double>(spec.points);
    p.cpu_pct = std::min(100.0, swing(spec.cpu_trough_pct, spec.cpu_peak_pct));
    p.bw_kbps = swing(spec.bw_trough_kbps, spec.bw_peak_kbps);
    p.io_blocks_per_s = swing(spec.io_trough_blocks, spec.io_peak_blocks);
    p.mem_mib = spec.mem_mib;
    out.push_back(p);
  }
  return out;
}

}  // namespace voprof::wl
