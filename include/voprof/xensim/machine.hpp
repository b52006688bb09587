#pragma once
/// \file machine.hpp
/// The simulated physical machine: assembles Dom0, the hypervisor
/// accounting bucket, guest domains, the credit scheduler, the virtual
/// disk layer and the VIF/bridge, and executes the per-tick pipeline
/// that charges virtualization overhead along the paths of Fig. 1
/// (guest frontend -> Dom0 backend -> physical device, with the
/// hypervisor trapping and scheduling in between).

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "voprof/util/rng.hpp"
#include "voprof/xensim/cost_model.hpp"
#include "voprof/xensim/counters.hpp"
#include "voprof/xensim/credit_micro.hpp"
#include "voprof/xensim/domain.hpp"
#include "voprof/xensim/scheduler.hpp"
#include "voprof/xensim/spec.hpp"
#include "voprof/xensim/vdisk.hpp"

namespace voprof::sim {

/// A flow leaving this PM for another PM or an external host.
struct OutboundFlow {
  NetTarget target;
  double kbits = 0.0;
  int tag = 0;
};

/// Inbound delivery queued by the cluster for a named local VM.
struct InboundDelivery {
  std::string vm_name;
  double kbits = 0.0;
  int tag = 0;
};

class PhysicalMachine {
 public:
  PhysicalMachine(int id, MachineSpec spec, CostModel costs, util::Rng rng);

  /// Ends any open episode (see Episode) with the last tick.
  ~PhysicalMachine();
  PhysicalMachine(const PhysicalMachine&) = delete;
  PhysicalMachine& operator=(const PhysicalMachine&) = delete;

  [[nodiscard]] int id() const noexcept { return id_; }
  [[nodiscard]] const MachineSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const CostModel& costs() const noexcept { return costs_; }

  /// Create a guest domain. Name must be unique on this PM.
  DomU& add_vm(VmSpec vm_spec);
  /// Destroy a guest domain (e.g. after migration). Returns false if
  /// the VM does not exist.
  bool remove_vm(const std::string& name);
  [[nodiscard]] DomU* find_vm(const std::string& name) noexcept;
  [[nodiscard]] const DomU* find_vm(const std::string& name) const noexcept;
  [[nodiscard]] std::size_t vm_count() const noexcept { return guests_.size(); }
  [[nodiscard]] std::vector<DomU*> vms() noexcept;

  [[nodiscard]] Dom0& dom0() noexcept { return dom0_; }
  [[nodiscard]] const Dom0& dom0() const noexcept { return dom0_; }

  /// Queue traffic for a local VM (called by the cluster router).
  void enqueue_rx(const std::string& vm_name, double kbits, int tag = 0);

  /// Inter-PM/external flows generated during the last tick; drained by
  /// the cluster router after every machine has ticked.
  [[nodiscard]] std::vector<OutboundFlow> drain_outbox();

  /// Advance one tick of dt seconds ending at sim time `now`.
  void tick(util::SimMicros now, double dt);

  /// Inject Dom0-mediated traffic that bypasses guest VIFs (used by
  /// the live-migration engine: memory pages stream through Dom0 and
  /// the NIC without belonging to any guest's counters). Consumed on
  /// the next tick: counts on the NIC and charges netback CPU.
  void inject_dom0_traffic(double tx_kbits, double rx_kbits);

  /// Detach a guest without destroying it (live-migration switchover).
  /// Returns nullptr if absent.
  [[nodiscard]] std::unique_ptr<DomU> extract_vm(const std::string& name);
  /// Adopt a guest extracted from another machine.
  DomU& adopt_vm(std::unique_ptr<DomU> vm);

  /// Cumulative activity dropped because a physical device was
  /// saturated (diagnostics; zero in the paper's experiments, whose
  /// workloads stay far below the SATA disk and gigabit NIC).
  [[nodiscard]] double throttled_disk_blocks() const noexcept {
    return throttled_disk_blocks_;
  }
  [[nodiscard]] double throttled_nic_kbits() const noexcept {
    return throttled_nic_kbits_;
  }

  /// Cumulative counters for every entity on this PM.
  [[nodiscard]] MachineSnapshot snapshot(util::SimMicros now) const;

  /// Snapshot variant for periodic samplers: refreshes `out` in place,
  /// reusing its guest vector and name strings, so a 1 Hz monitor does
  /// not reallocate the whole snapshot every sample.
  void snapshot_into(util::SimMicros now, MachineSnapshot& out) const;

  /// CPU granted to a VM in the most recent tick, % of a VCPU
  /// (diagnostics/tests).
  [[nodiscard]] double last_granted_pct(const std::string& vm_name) const;

  /// Total memory gauge: Dom0 + sum of guests (the paper's PM-memory
  /// estimate, Sec. III-A).
  [[nodiscard]] double memory_in_use_mib() const noexcept;

 private:
  struct GuestState {
    std::unique_ptr<DomU> dom;
    double last_granted_pct = 0.0;
    double last_consumed_pct = 0.0;
  };

  /// An outbound flow awaiting the NIC-saturation verdict this tick.
  struct PendingOut {
    const NetTarget* target = nullptr;  // aliases a flow in a guest's demand
    double kbits = 0.0;
    int tag = 0;
  };

  /// Consecutive ticks of scheduler contention, disk or NIC
  /// throttling, traced as one sim-clock span when they end.
  struct Episode {
    const char* cat = nullptr;
    const char* name = nullptr;
    util::SimMicros begin = 0;  ///< start of the episode's first tick
    util::SimMicros end = 0;    ///< end of its latest tick
    double amount = 0.0;        ///< per-tick amounts, summed
    long long ticks = 0;        ///< 0 when no episode is open
  };
  /// Extend `e` by the tick ending at `now` when `active`, else close it.
  void track(Episode& e, bool active, double amount, util::SimMicros now,
             double dt);
  void close(Episode& e);  ///< trace and reset `e`, if open

  /// Saturating control-plane response over all guests (Dom0 variant).
  [[nodiscard]] double dom0_ctrl_response() const noexcept;
  /// Saturating scheduling response over all guests (hypervisor).
  [[nodiscard]] double hyp_sched_response() const noexcept;
  [[nodiscard]] double jitter(double base, double rel) noexcept;

  int id_;
  MachineSpec spec_;
  CostModel costs_;
  util::Rng rng_;
  Dom0 dom0_;
  DomainCounters hypervisor_;
  DeviceCounters devices_;
  CreditScheduler scheduler_;
  MicroCreditScheduler micro_scheduler_;
  VirtualDisk vdisk_;
  std::vector<GuestState> guests_;
  std::vector<InboundDelivery> inbox_;
  std::vector<OutboundFlow> outbox_;
  double pending_dom0_tx_kbits_ = 0.0;
  double pending_dom0_rx_kbits_ = 0.0;
  double throttled_disk_blocks_ = 0.0;
  double throttled_nic_kbits_ = 0.0;
  util::SimMicros last_now_ = 0;
  Episode contention_{"scheduler", "contention"};
  Episode disk_throttle_{"device", "disk-throttled"};
  Episode nic_throttle_{"device", "nic-throttled"};

  // Per-tick scratch buffers, reused across ticks so the steady-state
  // tick makes no allocations. demands_ holds pointers into each
  // guest's last_demand(), valid for the duration of one tick.
  std::vector<const ProcessDemand*> demands_;
  std::vector<SchedRequest> requests_;
  std::vector<double> blocks_wanted_;
  std::vector<PendingOut> pending_out_;
  SchedResult sched_;
};

}  // namespace voprof::sim
