// The runtime invariant audit: value-level checks, fit/row validation
// hooks, and the InvariantAuditor riding the xensim tick loop — clean
// scenarios pass, a deliberately injected CPU-conservation violation
// is caught at the offending tick.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "voprof/core/invariants.hpp"
#include "voprof/core/regression.hpp"
#include "voprof/core/overhead_model.hpp"
#include "voprof/workloads/levels.hpp"
#include "voprof/xensim/cluster.hpp"
#include "voprof/xensim/engine.hpp"

namespace {

using voprof::model::check_finite;
using voprof::model::check_fit;
using voprof::model::check_in_range;
using voprof::model::check_monotonic_time;
using voprof::model::check_training_row;
using voprof::model::check_unit_interval;
using voprof::model::InvariantAuditor;
using voprof::model::InvariantViolation;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(ValueChecks, FiniteAcceptsOrdinaryValues) {
  EXPECT_NO_THROW(check_finite(0.0, "x"));
  EXPECT_NO_THROW(check_finite(-3.5e12, "x"));
}

TEST(ValueChecks, FiniteRejectsNanAndInfinity) {
  EXPECT_THROW(check_finite(kNan, "x"), InvariantViolation);
  EXPECT_THROW(check_finite(kInf, "x"), InvariantViolation);
  EXPECT_THROW(check_finite(-kInf, "x"), InvariantViolation);
}

TEST(ValueChecks, UnitIntervalAcceptsUtilizationsWithTolerance) {
  EXPECT_NO_THROW(check_unit_interval(0.0, "u"));
  EXPECT_NO_THROW(check_unit_interval(1.0, "u"));
  EXPECT_NO_THROW(check_unit_interval(1.0 + 1e-12, "u"));
}

TEST(ValueChecks, UnitIntervalRejectsOutOfRange) {
  EXPECT_THROW(check_unit_interval(-0.01, "u"), InvariantViolation);
  EXPECT_THROW(check_unit_interval(1.01, "u"), InvariantViolation);
  EXPECT_THROW(check_unit_interval(kNan, "u"), InvariantViolation);
}

TEST(ValueChecks, InRangeEnforcesBothBounds) {
  EXPECT_NO_THROW(check_in_range(50.0, 0.0, 100.0, "pct"));
  EXPECT_THROW(check_in_range(-1.0, 0.0, 100.0, "pct"), InvariantViolation);
  EXPECT_THROW(check_in_range(101.0, 0.0, 100.0, "pct"), InvariantViolation);
}

TEST(ValueChecks, MonotonicTimeRejectsBackwardsTimestamps) {
  EXPECT_NO_THROW(check_monotonic_time(10, 10, "series"));
  EXPECT_NO_THROW(check_monotonic_time(10, 11, "series"));
  EXPECT_THROW(check_monotonic_time(11, 10, "series"), InvariantViolation);
}

TEST(FitChecks, AcceptsSoundFit) {
  voprof::model::LinearFit fit;
  fit.coef = {1.0, 2.0, 3.0};
  fit.residual_rms = 0.25;
  fit.r_squared = 0.97;
  EXPECT_NO_THROW(check_fit(fit, "m"));
}

TEST(FitChecks, RejectsNanCoefficientAndBadStats) {
  voprof::model::LinearFit fit;
  fit.coef = {1.0, kNan};
  EXPECT_THROW(check_fit(fit, "m"), InvariantViolation);
  fit.coef = {1.0, 2.0};
  fit.residual_rms = -0.5;
  EXPECT_THROW(check_fit(fit, "m"), InvariantViolation);
  fit.residual_rms = 0.5;
  fit.r_squared = 1.5;
  EXPECT_THROW(check_fit(fit, "m"), InvariantViolation);
  fit.r_squared = 0.5;
  fit.coef.clear();
  EXPECT_THROW(check_fit(fit, "m"), InvariantViolation);
}

TEST(RowChecks, AcceptsSoundRowRejectsPoison) {
  voprof::model::TrainingRow row;
  row.n_vms = 2;
  row.vm_sum.cpu = 80.0;
  row.pm.cpu = 95.0;
  row.dom0_cpu = 20.0;
  row.hyp_cpu = 3.0;
  EXPECT_NO_THROW(check_training_row(row));

  row.pm.io = kNan;
  EXPECT_THROW(check_training_row(row), InvariantViolation);
  row.pm.io = 30.0;
  row.dom0_cpu = -1.0;
  EXPECT_THROW(check_training_row(row), InvariantViolation);
  row.dom0_cpu = 20.0;
  row.n_vms = 0;
  EXPECT_THROW(check_training_row(row), InvariantViolation);
}

TEST(RowChecks, MessageNamesTheFailingField) {
  voprof::model::TrainingRow row;
  row.n_vms = 1;
  row.pm.bw = -2.0;
  try {
    check_training_row(row);
    FAIL() << "accepted a negative pm.bw";
  } catch (const InvariantViolation& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "training row pm.bw must be non-negative (got -2"),
              std::string::npos)
        << e.what();
  }
}

// The fit hook runs in every build: a NaN observation fails the fit
// instead of yielding NaN coefficients.
TEST(FitChecks, OlsWithNanResponseThrows) {
  voprof::util::Matrix x(4, 1);
  const std::vector<double> y = {1.0, 3.0, kNan, 7.0};
  for (std::size_t r = 0; r < 4; ++r) x(r, 0) = static_cast<double>(r);
  EXPECT_THROW((void)voprof::model::fit_ols(x, y), InvariantViolation);
}

// --- Engine-scenario audits -------------------------------------------

/// Four co-located VMs under heavy CPU contention (the Fig. 4 setup):
/// the richest scheduling scenario — grants, saturation and Dom0
/// accounting all active — must satisfy every invariant on every tick.
TEST(Auditor, FourVmContentionSceneIsClean) {
  voprof::sim::Engine engine;
  voprof::sim::Cluster cluster(engine, voprof::sim::CostModel{}, 7);
  voprof::sim::PhysicalMachine& pm =
      cluster.add_machine(voprof::sim::MachineSpec{});
  for (int k = 0; k < 4; ++k) {
    voprof::sim::VmSpec spec;
    spec.name = "vm" + std::to_string(k + 1);
    voprof::sim::DomU& vm = pm.add_vm(spec);
    // Level 4 = 99 % CPU (Table II): four such VMs on two guest cores
    // force hard contention.
    vm.attach(voprof::wl::make_workload(voprof::wl::WorkloadKind::kCpu, 4,
                                        voprof::sim::NetTarget{},
                                        100 + static_cast<std::uint64_t>(k)));
  }
  InvariantAuditor auditor(cluster);
  EXPECT_NO_THROW(engine.run_for(voprof::util::seconds(20.0)));
  EXPECT_GT(auditor.ticks_audited(), 0U);
}

TEST(Auditor, MixedWorkloadSceneIsClean) {
  voprof::sim::Engine engine;
  voprof::sim::Cluster cluster(engine, voprof::sim::CostModel{}, 11);
  voprof::sim::PhysicalMachine& pm =
      cluster.add_machine(voprof::sim::MachineSpec{});
  const voprof::wl::WorkloadKind kinds[] = {
      voprof::wl::WorkloadKind::kCpu, voprof::wl::WorkloadKind::kMem,
      voprof::wl::WorkloadKind::kIo, voprof::wl::WorkloadKind::kBw};
  int k = 0;
  for (voprof::wl::WorkloadKind kind : kinds) {
    voprof::sim::VmSpec spec;
    spec.name = "mix" + std::to_string(++k);
    pm.add_vm(spec).attach(voprof::wl::make_workload(
        kind, 3, voprof::sim::NetTarget{}, 50 + static_cast<std::uint64_t>(k)));
  }
  InvariantAuditor auditor(cluster);
  EXPECT_NO_THROW(engine.run_for(voprof::util::seconds(10.0)));
  EXPECT_GT(auditor.ticks_audited(), 0U);
}

/// Deliberately break CPU conservation: charge a guest far beyond its
/// single VCPU between ticks. The auditor must flag the very next tick.
TEST(Auditor, CatchesInjectedConservationViolation) {
  voprof::sim::Engine engine;
  voprof::sim::Cluster cluster(engine, voprof::sim::CostModel{}, 13);
  voprof::sim::PhysicalMachine& pm =
      cluster.add_machine(voprof::sim::MachineSpec{});
  voprof::sim::VmSpec spec;
  spec.name = "victim";
  voprof::sim::DomU& vm = pm.add_vm(spec);
  vm.attach(voprof::wl::make_workload(voprof::wl::WorkloadKind::kCpu, 2,
                                      voprof::sim::NetTarget{}, 3));
  InvariantAuditor auditor(cluster);
  engine.run_for(voprof::util::seconds(2.0));  // clean warm-up

  // 500 % of a core for a full second on a 1-VCPU guest: impossible on
  // real hardware, so the accounting no longer conserves.
  vm.charge_cpu(500.0, 1.0);
  EXPECT_THROW(engine.run_for(voprof::util::seconds(1.0)),
               InvariantViolation);
}

/// A second injection flavor: reported utilization outside [0, 1] per
/// VCPU (the per-guest bound fires even when the pool total survives).
TEST(Auditor, CatchesPerGuestOverconsumption) {
  voprof::sim::Engine engine;
  voprof::sim::Cluster cluster(engine, voprof::sim::CostModel{}, 17);
  voprof::sim::PhysicalMachine& pm =
      cluster.add_machine(voprof::sim::MachineSpec{});
  voprof::sim::VmSpec spec;
  spec.name = "solo";
  voprof::sim::DomU& vm = pm.add_vm(spec);
  vm.attach(voprof::wl::make_workload(voprof::wl::WorkloadKind::kCpu, 1,
                                      voprof::sim::NetTarget{}, 5));
  InvariantAuditor auditor(cluster);
  engine.run_for(voprof::util::seconds(1.0));

  // +30 ms of extra core time inside a 10 ms tick window: the guest's
  // per-VCPU utilization exceeds 1 while the 2-core pool total does not.
  vm.charge_cpu(100.0, 0.030);
  EXPECT_THROW(engine.run_for(voprof::util::seconds(0.5)),
               InvariantViolation);
}

TEST(Auditor, DetachesOnDestruction) {
  voprof::sim::Engine engine;
  voprof::sim::Cluster cluster(engine, voprof::sim::CostModel{}, 19);
  cluster.add_machine(voprof::sim::MachineSpec{});
  {
    InvariantAuditor auditor(cluster);
    engine.run_for(voprof::util::seconds(0.1));
    EXPECT_GT(auditor.ticks_audited(), 0U);
  }
  // The auditor unregistered itself; ticking again must not touch it.
  EXPECT_NO_THROW(engine.run_for(voprof::util::seconds(0.1)));
}

}  // namespace
