#pragma once
/// \file hogs.hpp
/// Single-resource-intensive workload generators, the analog of the
/// paper's lookbusy-based CPU-/MEM-/I/O-intensive benchmarks and the
/// ping-based BW-intensive benchmark (Sec. III-B). Each hog stresses
/// exactly one resource and declares only the minimal side-costs the
/// paper observed (e.g. the I/O generator's own ~0.84 % CPU,
/// Fig. 2(c); the ping generator's 0.5-3 % CPU, Fig. 2(e)).

#include <string>

#include "voprof/util/rng.hpp"
#include "voprof/xensim/process.hpp"

namespace voprof::wl {

/// Highest CpuHog target: all of one VCPU, in percent.
inline constexpr double kMaxCpuPct = 100.0;

/// CPU-intensive workload: spins at a target utilization (lookbusy -c).
class CpuHog final : public sim::GuestProcess {
 public:
  /// \param target_pct  CPU utilization to hold, percent of one VCPU
  /// \param seed        jitter stream for the +-0.5 % duty-cycle noise
  CpuHog(double target_pct, std::uint64_t seed = 1);

  [[nodiscard]] sim::ProcessDemand demand(util::SimMicros now,
                                          double dt) override;
  [[nodiscard]] std::string label() const override;
  [[nodiscard]] double target_pct() const noexcept { return target_pct_; }
  void set_target_pct(double pct);

 private:
  double target_pct_;
  util::Rng rng_;
};

/// Memory-intensive workload: holds a resident allocation and touches
/// it (lookbusy -m). CPU cost of the touch loop is negligible at the
/// paper's sizes (0.03-50 MB, Table II).
class MemHog final : public sim::GuestProcess {
 public:
  explicit MemHog(double mem_mib, std::uint64_t seed = 2);

  [[nodiscard]] sim::ProcessDemand demand(util::SimMicros now,
                                          double dt) override;
  [[nodiscard]] std::string label() const override;
  [[nodiscard]] double mem_mib() const noexcept { return mem_mib_; }

 private:
  double mem_mib_;
  util::Rng rng_;
};

/// I/O-intensive workload: submits disk blocks at a target rate
/// (lookbusy -d). Charges its own pump-loop CPU:
/// base + per_block * rate, calibrated to the flat ~0.84 % VM CPU of
/// Figs. 2(c)/3(c)/4(c).
class IoHog final : public sim::GuestProcess {
 public:
  explicit IoHog(double blocks_per_s, std::uint64_t seed = 3);

  [[nodiscard]] sim::ProcessDemand demand(util::SimMicros now,
                                          double dt) override;
  [[nodiscard]] std::string label() const override;
  [[nodiscard]] double blocks_per_s() const noexcept { return blocks_per_s_; }

  /// Pump-loop CPU model (exposed for calibration tests).
  [[nodiscard]] static double pump_cpu_pct(double blocks_per_s) noexcept;

 private:
  double blocks_per_s_;
  util::Rng rng_;
};

/// Bandwidth-intensive workload: streams packets at a target rate to a
/// fixed destination (the paper uses `ping` with large packets;
/// Sec. IV-B pings 64 Kb packets between co-located VMs). Charges the
/// packet-generation CPU of Fig. 2(e) (0.5 -> 3 % across the sweep).
class NetPing final : public sim::GuestProcess {
 public:
  /// \param rate_kbps  transmit rate in Kb/s
  /// \param target     destination (external, remote PM VM, or
  ///                   co-located VM for the Fig. 5 experiment)
  NetPing(double rate_kbps, sim::NetTarget target, std::uint64_t seed = 4);

  [[nodiscard]] sim::ProcessDemand demand(util::SimMicros now,
                                          double dt) override;
  [[nodiscard]] std::string label() const override;
  [[nodiscard]] double rate_kbps() const noexcept { return rate_kbps_; }
  [[nodiscard]] const sim::NetTarget& target() const noexcept {
    return target_;
  }

  /// Packet-generation CPU model (exposed for calibration tests).
  [[nodiscard]] static double pump_cpu_pct(double rate_kbps) noexcept;

 private:
  double rate_kbps_;
  sim::NetTarget target_;
  util::Rng rng_;
};

/// Multi-resource workload: one process exercising all four resources
/// at once (what real applications do, unlike the single-resource
/// hogs the paper constructs for isolation). Used to validate that
/// the models, trained on single-resource sweeps, generalize to
/// composite behaviour.
class MixedWorkload final : public sim::GuestProcess {
 public:
  struct Levels {
    double cpu_pct = 0.0;
    double mem_mib = 0.0;
    double io_blocks_per_s = 0.0;
    double bw_kbps = 0.0;
  };

  MixedWorkload(Levels levels, sim::NetTarget bw_target,
                std::uint64_t seed = 6);

  [[nodiscard]] sim::ProcessDemand demand(util::SimMicros now,
                                          double dt) override;
  [[nodiscard]] std::string label() const override;
  [[nodiscard]] const Levels& levels() const noexcept { return levels_; }

 private:
  Levels levels_;
  sim::NetTarget target_;
  util::Rng rng_;
};

}  // namespace voprof::wl
