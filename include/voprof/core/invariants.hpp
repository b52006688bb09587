#pragma once
/// \file invariants.hpp
/// Runtime invariant audit for the simulator and the model pipeline.
///
/// The paper's claims are quantitative (Dom0/hypervisor CPU overhead,
/// ~2x disk amplification, the M-hat regression of Sec. V), so a silent
/// NaN or an out-of-range utilization poisons every downstream figure.
/// This header provides
///   - cheap value-level checks (finite, unit-interval, monotone time),
///   - an InvariantAuditor that rides the xensim engine tick loop as a
///     TickListener and cross-checks every PhysicalMachine snapshot:
///     counters monotone and finite, per-PM CPU accounting conserved
///     across Dom0 / guest domains / hypervisor, memory gauges sane,
///   - validation hooks the trainers and regression back-ends call on
///     every row they collect and every coefficient they fit, in every
///     build.

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "voprof/util/assert.hpp"
#include "voprof/util/units.hpp"
#include "voprof/xensim/counters.hpp"
#include "voprof/xensim/engine.hpp"

namespace voprof::sim {
class Cluster;
}

namespace voprof::model {

struct TrainingRow;
struct LinearFit;

/// Thrown on any invariant violation (derived from ContractViolation so
/// existing catch sites keep working).
class InvariantViolation : public util::ContractViolation {
 public:
  explicit InvariantViolation(const std::string& what_arg)
      : util::ContractViolation(what_arg) {}
};

/// [[noreturn]] helper: raise an InvariantViolation with context.
[[noreturn]] void invariant_failure(const std::string& what,
                                    const std::string& detail);

/// `value` must be finite (no NaN / infinity).
void check_finite(double value, std::string_view what);
/// `value` must be a utilization fraction in [0, 1] (with tolerance
/// `tol` for floating-point accumulation).
void check_unit_interval(double value, const std::string& what,
                         double tol = 1e-9);
/// `value` must lie in [lo, hi].
void check_in_range(double value, double lo, double hi,
                    const std::string& what);
/// Timestamps must not run backwards.
void check_monotonic_time(util::SimMicros prev, util::SimMicros cur,
                          const std::string& what);

/// Validate one cumulative-counter step: every counter finite and
/// non-decreasing relative to `prev` (memory is a gauge: finite,
/// non-negative). `who` labels error messages.
void check_counters_step(const sim::DomainCounters& prev,
                         const sim::DomainCounters& cur,
                         const std::string& who);

/// Validate a fitted linear model: all coefficients finite,
/// residual RMS finite and non-negative, R^2 finite and <= 1.
void check_fit(const LinearFit& fit, const std::string& what);

/// Validate one training observation: every metric finite and
/// non-negative, at least one VM.
void check_training_row(const TrainingRow& row);

/// Tick-loop auditor for a whole cluster. Construct it after the
/// cluster (listeners tick in registration order, so the auditor sees
/// post-tick state) and it verifies, every tick and for every machine:
///   - simulated time advances strictly monotonically,
///   - every domain / device counter is finite and non-decreasing,
///   - per-guest CPU consumption fits inside the guest's VCPU
///     allocation, the guest pool fits inside the guest cores, Dom0
///     fits inside its pinned cores, and the PM total (Dom0 + guests +
///     hypervisor) never exceeds the physical cores (conservation of
///     CPU accounting across the Fig. 1 layers),
///   - utilization fractions derived from those deltas stay in [0, 1],
///   - memory gauges are finite and non-negative.
/// Violations throw InvariantViolation at the offending tick.
class InvariantAuditor final : public sim::TickListener {
 public:
  /// Attaches to the cluster's engine. The auditor does not own the
  /// cluster and must not outlive it.
  explicit InvariantAuditor(sim::Cluster& cluster);
  ~InvariantAuditor() override;

  InvariantAuditor(const InvariantAuditor&) = delete;
  InvariantAuditor& operator=(const InvariantAuditor&) = delete;

  void tick(util::SimMicros now, double dt) override;

  /// Number of ticks audited so far (diagnostics / tests).
  [[nodiscard]] std::size_t ticks_audited() const noexcept {
    return ticks_audited_;
  }

  /// Relative slack applied to capacity comparisons (accumulated
  /// floating-point error across a tick).
  static constexpr double kCapacitySlack = 1e-6;

 private:
  struct MachineBaseline {
    sim::MachineSnapshot snap;
    bool valid = false;
  };

  void audit_machine(std::size_t idx, util::SimMicros now);

  sim::Cluster& cluster_;
  std::vector<MachineBaseline> prev_;
  util::SimMicros last_now_ = 0;
  bool seen_tick_ = false;
  std::size_t ticks_audited_ = 0;
};

}  // namespace voprof::model
