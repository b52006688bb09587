#include "voprof/core/invariants.hpp"

#include <cmath>
#include <string>
#include <string_view>

#include "voprof/core/overhead_model.hpp"
#include "voprof/core/regression.hpp"
#include "voprof/xensim/cluster.hpp"
#include "voprof/xensim/machine.hpp"

namespace voprof::model {

void invariant_failure(const std::string& what, const std::string& detail) {
  throw InvariantViolation("invariant violated: " + what +
                           (detail.empty() ? "" : (" (" + detail + ")")));
}

void check_finite(double value, std::string_view what) {
  if (!std::isfinite(value)) {
    invariant_failure(std::string(what) + " must be finite",
                      "got " + std::to_string(value));
  }
}

void check_unit_interval(double value, const std::string& what, double tol) {
  check_finite(value, what);
  if (value < -tol || value > 1.0 + tol) {
    invariant_failure(what + " must lie in [0, 1]",
                      "got " + std::to_string(value));
  }
}

void check_in_range(double value, double lo, double hi,
                    const std::string& what) {
  check_finite(value, what);
  if (value < lo || value > hi) {
    invariant_failure(what + " out of range [" + std::to_string(lo) + ", " +
                          std::to_string(hi) + "]",
                      "got " + std::to_string(value));
  }
}

void check_monotonic_time(util::SimMicros prev, util::SimMicros cur,
                          const std::string& what) {
  if (cur < prev) {
    invariant_failure(what + " timestamps must be monotone",
                      std::to_string(cur) + " < " + std::to_string(prev));
  }
}

void check_counters_step(const sim::DomainCounters& prev,
                         const sim::DomainCounters& cur,
                         const std::string& who) {
  const struct {
    const char* name;
    double before;
    double after;
  } cumulative[] = {
      {"cpu_core_seconds", prev.cpu_core_seconds, cur.cpu_core_seconds},
      {"io_blocks", prev.io_blocks, cur.io_blocks},
      {"tx_kbits", prev.tx_kbits, cur.tx_kbits},
      {"rx_kbits", prev.rx_kbits, cur.rx_kbits},
  };
  for (const auto& c : cumulative) {
    check_finite(c.after, who + "." + c.name);
    if (c.after < c.before) {
      invariant_failure(who + "." + c.name + " must be non-decreasing",
                        std::to_string(c.after) + " < " +
                            std::to_string(c.before));
    }
  }
  check_finite(cur.mem_mib, who + ".mem_mib");
  if (cur.mem_mib < 0.0) {
    invariant_failure(who + ".mem_mib must be non-negative",
                      "got " + std::to_string(cur.mem_mib));
  }
}

void check_fit(const LinearFit& fit, const std::string& what) {
  if (fit.coef.empty()) {
    invariant_failure(what + " has no coefficients", "");
  }
  for (std::size_t i = 0; i < fit.coef.size(); ++i) {
    check_finite(fit.coef[i], what + ".coef[" + std::to_string(i) + "]");
  }
  check_finite(fit.residual_rms, what + ".residual_rms");
  if (fit.residual_rms < 0.0) {
    invariant_failure(what + ".residual_rms must be non-negative",
                      "got " + std::to_string(fit.residual_rms));
  }
  check_finite(fit.r_squared, what + ".r_squared");
  if (fit.r_squared > 1.0 + 1e-9) {
    invariant_failure(what + ".r_squared must be <= 1",
                      "got " + std::to_string(fit.r_squared));
  }
}

void check_training_row(const TrainingRow& row) {
  if (row.n_vms < 1) {
    invariant_failure("training row needs at least one VM",
                      "n_vms = " + std::to_string(row.n_vms));
  }
  const struct {
    const char* name;
    double value;
  } fields[] = {
      {"vm_sum.cpu", row.vm_sum.cpu}, {"vm_sum.mem", row.vm_sum.mem},
      {"vm_sum.io", row.vm_sum.io},   {"vm_sum.bw", row.vm_sum.bw},
      {"pm.cpu", row.pm.cpu},         {"pm.mem", row.pm.mem},
      {"pm.io", row.pm.io},           {"pm.bw", row.pm.bw},
      {"dom0_cpu", row.dom0_cpu},     {"hyp_cpu", row.hyp_cpu},
  };
  // Every training row passes through here, so the message is built
  // only for a value that fails.
  for (const auto& f : fields) {
    if (f.value >= 0.0 && std::isfinite(f.value)) continue;
    const std::string what = std::string("training row ") + f.name;
    check_finite(f.value, what);
    invariant_failure(what + " must be non-negative",
                      "got " + std::to_string(f.value));
  }
}

InvariantAuditor::InvariantAuditor(sim::Cluster& cluster)
    : cluster_(cluster) {
  cluster_.engine().add_listener(this);
}

InvariantAuditor::~InvariantAuditor() {
  cluster_.engine().remove_listener(this);
}

void InvariantAuditor::tick(util::SimMicros now, double dt) {
  if (seen_tick_ && now <= last_now_) {
    invariant_failure("engine time must advance strictly per tick",
                      std::to_string(now) + " <= " + std::to_string(last_now_));
  }
  check_finite(dt, "tick dt");
  if (dt <= 0.0) {
    invariant_failure("tick dt must be positive", std::to_string(dt));
  }
  seen_tick_ = true;
  last_now_ = now;
  prev_.resize(cluster_.machine_count());
  for (std::size_t i = 0; i < cluster_.machine_count(); ++i) {
    audit_machine(i, now);
  }
  ++ticks_audited_;
}

void InvariantAuditor::audit_machine(std::size_t idx, util::SimMicros now) {
  const sim::PhysicalMachine& pm = cluster_.machine(idx);
  const sim::MachineSnapshot cur = pm.snapshot(now);
  const std::string who = "pm" + std::to_string(pm.id());
  MachineBaseline& base = prev_[idx];

  // Absolute validation always runs (finite, non-negative against the
  // zero origin — counters are cumulative from construction).
  const sim::MachineSnapshot zero;
  const sim::MachineSnapshot& ref = base.valid ? base.snap : zero;

  check_counters_step(ref.dom0.counters, cur.dom0.counters, who + ".dom0");
  check_counters_step(ref.hypervisor, cur.hypervisor, who + ".hypervisor");

  check_finite(cur.devices.disk_blocks, who + ".devices.disk_blocks");
  check_finite(cur.devices.nic_kbits, who + ".devices.nic_kbits");
  if (base.valid) {
    check_monotonic_time(ref.time, cur.time, who + " snapshot");
    if (cur.devices.disk_blocks < ref.devices.disk_blocks ||
        cur.devices.nic_kbits < ref.devices.nic_kbits) {
      invariant_failure(who + " device counters must be non-decreasing", "");
    }
  }

  for (const auto& g : cur.guests) {
    check_counters_step(sim::DomainCounters{}, g.counters, who + "." + g.name);
  }

  // Memory gauge: PM-level estimate (Sec. III-A) must be finite and
  // non-negative; per-domain gauges were validated above.
  const double mem = pm.memory_in_use_mib();
  check_finite(mem, who + " memory gauge");
  if (mem < 0.0) {
    invariant_failure(who + " memory gauge must be non-negative",
                      std::to_string(mem));
  }

  // Conservation needs two consecutive snapshots. Guests are matched by
  // name; a guest that appeared since the last tick (created, or
  // live-migrated in with its historical counters) joins the audit on
  // the next tick.
  const double window =
      base.valid ? util::to_seconds(cur.time - ref.time) : 0.0;
  if (window > 0.0) {
    const double slack = kCapacitySlack;
    const sim::MachineSpec& spec = pm.spec();

    // Guests: each VCPU allocation and the shared guest-core pool are
    // hard capacity limits the credit scheduler enforces; consumption
    // beyond them means CPU accounting leaked between domains.
    double guest_cpu_s = 0.0;
    for (const auto& g : cur.guests) {
      const sim::DomainCounters* prev_counters = nullptr;
      for (const auto& pg : ref.guests) {
        if (pg.name == g.name) {
          prev_counters = &pg.counters;
          break;
        }
      }
      if (prev_counters == nullptr) continue;
      if (g.counters.cpu_core_seconds < prev_counters->cpu_core_seconds) {
        invariant_failure(who + "." + g.name +
                              ".cpu_core_seconds must be non-decreasing",
                          "");
      }
      const double delta =
          g.counters.cpu_core_seconds - prev_counters->cpu_core_seconds;
      guest_cpu_s += delta;
      const sim::DomU* vm = pm.find_vm(g.name);
      const double vcpus = vm != nullptr
                               ? static_cast<double>(vm->spec().vcpus)
                               : static_cast<double>(spec.guest_cores);
      const double util_frac = delta / (vcpus * window);
      check_unit_interval(util_frac, who + "." + g.name + " CPU utilization",
                          slack * (1.0 + vcpus));
    }

    const double guest_cap_s = spec.guest_cpu_capacity_pct() / 100.0 * window;
    if (guest_cpu_s > guest_cap_s * (1.0 + slack)) {
      invariant_failure(who + " guest pool CPU exceeds guest cores",
                        std::to_string(guest_cpu_s) + " core-s > " +
                            std::to_string(guest_cap_s) + " core-s");
    }
    const double dom0_delta =
        cur.dom0.counters.cpu_core_seconds - ref.dom0.counters.cpu_core_seconds;
    const double dom0_cap_s = spec.dom0_cpu_capacity_pct() / 100.0 * window;
    if (dom0_delta > dom0_cap_s * (1.0 + slack)) {
      invariant_failure(who + " Dom0 CPU exceeds its pinned cores",
                        std::to_string(dom0_delta) + " core-s > " +
                            std::to_string(dom0_cap_s) + " core-s");
    }
    const double hyp_delta =
        cur.hypervisor.cpu_core_seconds - ref.hypervisor.cpu_core_seconds;
    // Conservation across the Fig. 1 layers: everything the PM accounts
    // (guests + Dom0 + hypervisor) must fit on the physical cores. The
    // hypervisor bucket is demand-driven but small; its saturating
    // response plus base cost stays well under one core, hence the
    // one-core headroom on top of the scheduler-enforced pools.
    const double total_cap_s = (static_cast<double>(spec.cores) + 1.0) * window;
    const double total = guest_cpu_s + dom0_delta + hyp_delta;
    if (total > total_cap_s * (1.0 + slack)) {
      invariant_failure(who + " total CPU accounting exceeds physical cores",
                        std::to_string(total) + " core-s > " +
                            std::to_string(total_cap_s) + " core-s");
    }
  }

  base.snap = cur;
  base.valid = true;
}

}  // namespace voprof::model
