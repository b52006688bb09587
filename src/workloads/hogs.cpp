#include "voprof/workloads/hogs.hpp"

#include <algorithm>

#include "voprof/util/assert.hpp"
#include "voprof/util/table.hpp"

namespace voprof::wl {

// ---------------------------------------------------------------- CpuHog
CpuHog::CpuHog(double target_pct, std::uint64_t seed)
    : target_pct_(target_pct), rng_(seed) {
  VOPROF_REQUIRE(target_pct >= 0.0 && target_pct <= kMaxCpuPct);
}

sim::ProcessDemand CpuHog::demand(util::SimMicros /*now*/, double /*dt*/) {
  sim::ProcessDemand d;
  // lookbusy's duty cycling is not perfectly sharp; +-0.5 % absolute.
  d.cpu_pct = std::clamp(target_pct_ + 0.5 * rng_.gaussian(), 0.0, 100.0);
  return d;
}

std::string CpuHog::label() const {
  return "cpu-hog(" + util::fmt(target_pct_, 0) + "%)";
}

void CpuHog::set_target_pct(double pct) {
  VOPROF_REQUIRE(pct >= 0.0 && pct <= kMaxCpuPct);
  target_pct_ = pct;
}

// ---------------------------------------------------------------- MemHog
MemHog::MemHog(double mem_mib, std::uint64_t seed)
    : mem_mib_(mem_mib), rng_(seed) {
  VOPROF_REQUIRE(mem_mib >= 0.0);
}

sim::ProcessDemand MemHog::demand(util::SimMicros /*now*/, double /*dt*/) {
  sim::ProcessDemand d;
  d.mem_mib = mem_mib_;
  // The touch loop costs almost nothing at Table II sizes; the paper
  // reports all CPU metrics constant under the memory benchmark
  // (Sec. III-C).
  d.cpu_pct = std::max(0.0, 0.1 + 0.02 * rng_.gaussian());
  return d;
}

std::string MemHog::label() const {
  return "mem-hog(" + util::fmt(mem_mib_, 2) + "MiB)";
}

// ----------------------------------------------------------------- IoHog
IoHog::IoHog(double blocks_per_s, std::uint64_t seed)
    : blocks_per_s_(blocks_per_s), rng_(seed) {
  VOPROF_REQUIRE(blocks_per_s >= 0.0);
}

double IoHog::pump_cpu_pct(double blocks_per_s) noexcept {
  // Calibrated to the flat ~0.84 % VM CPU of Fig. 2(c) at the top
  // Table II level: 0.7 % base plus 0.14 % at 72 blocks/s.
  return 0.7 + 0.14 * (blocks_per_s / 72.0);
}

sim::ProcessDemand IoHog::demand(util::SimMicros /*now*/, double dt) {
  sim::ProcessDemand d;
  d.io_blocks = blocks_per_s_ * dt;
  d.cpu_pct = std::max(0.0, pump_cpu_pct(blocks_per_s_) *
                                (1.0 + 0.02 * rng_.gaussian()));
  return d;
}

std::string IoHog::label() const {
  return "io-hog(" + util::fmt(blocks_per_s_, 0) + "blocks/s)";
}

// --------------------------------------------------------------- NetPing
NetPing::NetPing(double rate_kbps, sim::NetTarget target, std::uint64_t seed)
    : rate_kbps_(rate_kbps), target_(std::move(target)), rng_(seed) {
  VOPROF_REQUIRE(rate_kbps >= 0.0);
}

double NetPing::pump_cpu_pct(double rate_kbps) noexcept {
  // Fig. 2(e): VM CPU climbs 0.5 % -> 3 % across the 0 -> 1280 Kb/s
  // sweep: 0.5 + 0.00195 * 1280 = 3.0.
  return 0.5 + 0.00195 * rate_kbps;
}

sim::ProcessDemand NetPing::demand(util::SimMicros /*now*/, double dt) {
  sim::ProcessDemand d;
  d.cpu_pct = std::max(0.0, pump_cpu_pct(rate_kbps_) *
                                (1.0 + 0.02 * rng_.gaussian()));
  if (rate_kbps_ > 0.0) {
    d.flows.push_back(sim::NetFlow{rate_kbps_ * dt, target_});
  }
  return d;
}

std::string NetPing::label() const {
  return "net-ping(" + util::fmt(rate_kbps_, 1) + "Kb/s)";
}

// --------------------------------------------------------- MixedWorkload
MixedWorkload::MixedWorkload(Levels levels, sim::NetTarget bw_target,
                             std::uint64_t seed)
    : levels_(levels), target_(std::move(bw_target)), rng_(seed) {
  VOPROF_REQUIRE(levels_.cpu_pct >= 0.0 && levels_.cpu_pct <= 100.0);
  VOPROF_REQUIRE(levels_.mem_mib >= 0.0);
  VOPROF_REQUIRE(levels_.io_blocks_per_s >= 0.0);
  VOPROF_REQUIRE(levels_.bw_kbps >= 0.0);
}

sim::ProcessDemand MixedWorkload::demand(util::SimMicros /*now*/,
                                         double dt) {
  sim::ProcessDemand d;
  // Own compute plus the side-costs of pumping I/O and packets (same
  // models as the single-resource hogs).
  const double side = (levels_.io_blocks_per_s > 0.0
                           ? IoHog::pump_cpu_pct(levels_.io_blocks_per_s)
                           : 0.0) +
                      (levels_.bw_kbps > 0.0
                           ? NetPing::pump_cpu_pct(levels_.bw_kbps)
                           : 0.0);
  d.cpu_pct = std::clamp(
      levels_.cpu_pct + side + 0.5 * rng_.gaussian(), 0.0, 100.0);
  d.mem_mib = levels_.mem_mib;
  d.io_blocks = levels_.io_blocks_per_s * dt;
  if (levels_.bw_kbps > 0.0) {
    d.flows.push_back(sim::NetFlow{levels_.bw_kbps * dt, target_});
  }
  return d;
}

std::string MixedWorkload::label() const {
  return "mixed(" + util::fmt(levels_.cpu_pct, 0) + "%," +
         util::fmt(levels_.io_blocks_per_s, 0) + "blk/s," +
         util::fmt(levels_.bw_kbps, 0) + "Kb/s)";
}

}  // namespace voprof::wl
