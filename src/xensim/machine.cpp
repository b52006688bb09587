#include "voprof/xensim/machine.hpp"

#include <algorithm>
#include <utility>

#include "voprof/obs/metrics.hpp"
#include "voprof/obs/trace.hpp"
#include "voprof/util/assert.hpp"

namespace voprof::sim {

namespace {

struct MachineMetrics {
  obs::Counter& ticks;
  obs::Counter& contention_episodes;
  obs::Counter& disk_throttle_ticks;
  obs::Counter& nic_throttle_ticks;

  static MachineMetrics& get() {
    static MachineMetrics m{
        obs::Registry::global().counter("machine.ticks"),
        obs::Registry::global().counter("machine.contention_episodes"),
        obs::Registry::global().counter("machine.disk_throttle_ticks"),
        obs::Registry::global().counter("machine.nic_throttle_ticks")};
    return m;
  }
};

}  // namespace

PhysicalMachine::PhysicalMachine(int id, MachineSpec spec, CostModel costs,
                                 util::Rng rng)
    : id_(id),
      spec_(spec),
      costs_(costs),
      rng_(rng),
      dom0_(spec.dom0_mem_mib),
      scheduler_(spec.guest_cpu_capacity_pct(),
                 costs.multi_vm_sched_efficiency),
      micro_scheduler_(spec.guest_cores, costs.multi_vm_sched_efficiency),
      vdisk_(VDiskGeometry{}, rng_.split().bits()) {}

DomU& PhysicalMachine::add_vm(VmSpec vm_spec) {
  VOPROF_REQUIRE_MSG(find_vm(vm_spec.name) == nullptr,
                     "duplicate VM name on PM: " + vm_spec.name);
  GuestState st;
  st.dom = std::make_unique<DomU>(std::move(vm_spec));
  guests_.push_back(std::move(st));
  obs::TraceCollector::global().instant_sim(
      "vm", "vm-created", last_now_, static_cast<std::uint64_t>(id_), 0.0,
      guests_.back().dom->name());
  return *guests_.back().dom;
}

bool PhysicalMachine::remove_vm(const std::string& name) {
  const auto it = std::find_if(
      guests_.begin(), guests_.end(),
      [&name](const GuestState& g) { return g.dom->name() == name; });
  if (it == guests_.end()) return false;
  obs::TraceCollector::global().instant_sim(
      "vm", "vm-removed", last_now_, static_cast<std::uint64_t>(id_), 0.0,
      name);
  guests_.erase(it);
  return true;
}

DomU* PhysicalMachine::find_vm(const std::string& name) noexcept {
  for (auto& g : guests_) {
    if (g.dom->name() == name) return g.dom.get();
  }
  return nullptr;
}

const DomU* PhysicalMachine::find_vm(const std::string& name) const noexcept {
  for (const auto& g : guests_) {
    if (g.dom->name() == name) return g.dom.get();
  }
  return nullptr;
}

std::vector<DomU*> PhysicalMachine::vms() noexcept {
  std::vector<DomU*> out;
  out.reserve(guests_.size());
  for (auto& g : guests_) out.push_back(g.dom.get());
  return out;
}

void PhysicalMachine::enqueue_rx(const std::string& vm_name, double kbits,
                                 int tag) {
  VOPROF_REQUIRE(kbits >= 0.0);
  inbox_.push_back({vm_name, kbits, tag});
}

std::vector<OutboundFlow> PhysicalMachine::drain_outbox() {
  std::vector<OutboundFlow> out;
  out.swap(outbox_);
  return out;
}

void PhysicalMachine::inject_dom0_traffic(double tx_kbits, double rx_kbits) {
  VOPROF_REQUIRE(tx_kbits >= 0.0 && rx_kbits >= 0.0);
  pending_dom0_tx_kbits_ += tx_kbits;
  pending_dom0_rx_kbits_ += rx_kbits;
}

std::unique_ptr<DomU> PhysicalMachine::extract_vm(const std::string& name) {
  const auto it = std::find_if(
      guests_.begin(), guests_.end(),
      [&name](const GuestState& g) { return g.dom->name() == name; });
  if (it == guests_.end()) return nullptr;
  std::unique_ptr<DomU> vm = std::move(it->dom);
  guests_.erase(it);
  return vm;
}

DomU& PhysicalMachine::adopt_vm(std::unique_ptr<DomU> vm) {
  VOPROF_REQUIRE(vm != nullptr);
  VOPROF_REQUIRE_MSG(find_vm(vm->name()) == nullptr,
                     "duplicate VM name on PM: " + vm->name());
  GuestState st;
  st.dom = std::move(vm);
  guests_.push_back(std::move(st));
  return *guests_.back().dom;
}

double PhysicalMachine::jitter(double base, double rel) noexcept {
  if (rel <= 0.0 || base == 0.0) return base;
  return std::max(0.0, base * (1.0 + rel * rng_.gaussian()));
}

double PhysicalMachine::dom0_ctrl_response() const noexcept {
  double sum = 0.0;
  for (const auto& g : guests_) {
    sum += quadratic_response(g.last_consumed_pct, costs_.dom0_ctrl_lin,
                              costs_.dom0_ctrl_quad);
  }
  const double cap = guests_.size() >= 2 ? costs_.dom0_ctrl_sat_multi_pct
                                         : costs_.dom0_ctrl_sat_single_pct;
  return std::min(sum, cap);
}

double PhysicalMachine::hyp_sched_response() const noexcept {
  double sum = 0.0;
  for (const auto& g : guests_) {
    sum += quadratic_response(g.last_consumed_pct, costs_.hyp_sched_lin,
                              costs_.hyp_sched_quad);
  }
  const double cap = guests_.size() >= 2 ? costs_.hyp_sched_sat_multi_pct
                                         : costs_.hyp_sched_sat_single_pct;
  return std::min(sum, cap);
}

void PhysicalMachine::tick(util::SimMicros now, double dt) {
  VOPROF_REQUIRE(dt > 0.0);
  MachineMetrics::get().ticks.add();
  obs::TraceCollector& trace = obs::TraceCollector::global();
  const bool traced = trace.enabled();
  last_now_ = now;
  const bool multi = guests_.size() >= 2;

  // ---- 1. Deliver inbound traffic queued by the cluster router, and
  // account injected Dom0-mediated streams (live migration). ----------
  double inbound_inter_kbits = 0.0;
  for (const auto& d : inbox_) {
    if (DomU* vm = find_vm(d.vm_name)) {
      vm->deliver(d.kbits, d.tag, now);
      inbound_inter_kbits += d.kbits;
    }
    // Traffic for a vanished VM is dropped at the bridge.
  }
  inbox_.clear();
  const double injected_tx = pending_dom0_tx_kbits_;
  const double injected_rx = pending_dom0_rx_kbits_;
  pending_dom0_tx_kbits_ = 0.0;
  pending_dom0_rx_kbits_ = 0.0;
  devices_.nic_kbits += inbound_inter_kbits + injected_rx;

  // ---- 2. Phase A: collect guest demands. ------------------------------
  // The scratch vectors are members reused tick to tick; demands_
  // holds pointers into each guest's last_demand(), which stays valid
  // until that guest's next collect_demand call.
  demands_.clear();
  requests_.clear();
  for (auto& g : guests_) {
    demands_.push_back(&g.dom->collect_demand(now, dt));
    requests_.push_back(SchedRequest{demands_.back()->cpu_pct,
                                     g.dom->spec().cpu_capacity_pct(), 1.0});
  }
  const std::vector<SchedRequest>& requests = requests_;

  // ---- 3. Credit scheduler: allocate the guest CPU pool (macro
  // closed form or the discrete Xen algorithm, per MachineSpec). ------
  if (spec_.scheduler == SchedulerMode::kMicro) {
    micro_scheduler_.tick_into(requests, dt, sched_);
  } else {
    scheduler_.allocate_into(requests, sched_);
  }
  const SchedResult& sched = sched_;
  if (traced && sched.contended) {
    double unmet = 0.0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
      unmet += std::max(0.0, std::min(requests[i].demand_pct,
                                      requests[i].cap_pct) -
                                 sched.granted_pct[i]);
    }
    trace.instant_sim("scheduler", "sched-contention", now,
                      static_cast<std::uint64_t>(id_), unmet);
  }

  // Contention episodes as sim-clock spans: open when the scheduler
  // first fails to satisfy aggregate demand, close on the first
  // satisfied tick. An episode still open at the end of a run is
  // dropped (the trace has the per-tick sched-contention instants
  // regardless).
  if (sched.contended && contention_begin_ < 0) {
    contention_begin_ = now;
  } else if (!sched.contended && contention_begin_ >= 0) {
    MachineMetrics::get().contention_episodes.add();
    trace.complete_sim("scheduler", "contention", contention_begin_,
                       now - contention_begin_,
                       static_cast<std::uint64_t>(id_));
    contention_begin_ = -1;
  }

  // ---- 4a. First pass: CPU grants and activity generation. ------------
  blocks_wanted_.assign(guests_.size(), 0.0);
  std::vector<double>& blocks_wanted = blocks_wanted_;
  double blocks_wanted_total = 0.0;
  for (std::size_t i = 0; i < guests_.size(); ++i) {
    auto& g = guests_[i];
    const ProcessDemand& d = *demands_[i];
    const double granted = sched.granted_pct[i];
    const double frac = d.cpu_pct > 0.0 ? granted / d.cpu_pct : 1.0;
    g.last_granted_pct = granted;
    g.last_consumed_pct = granted;

    // Phase B: tell processes how much CPU they actually got.
    g.dom->grant(frac, now, dt);
    g.dom->charge_cpu(granted, dt);

    // Disk I/O and network activity require CPU to be generated; when
    // the VCPU is starved the emitted activity scales down with it.
    blocks_wanted[i] = jitter(d.io_blocks * frac, costs_.activity_jitter);
    blocks_wanted_total += blocks_wanted[i];
  }

  // ---- 4b. Disk saturation: the striped writes must fit the physical
  // device; excess guest blocks are throttled proportionally (never
  // triggered by the paper's workloads, whose aggregate stays far
  // below the SATA budget). ---------------------------------------------
  const double base_io =
      jitter(costs_.pm_base_io_blocks * dt, costs_.pm_base_io_jitter);
  const double disk_budget = spec_.disk_blocks_per_s * dt;
  double disk_scale = 1.0;
  const double amplification = vdisk_.expected_amplification();
  const double physical_wanted =
      amplification * blocks_wanted_total + base_io;
  if (physical_wanted > disk_budget && blocks_wanted_total > 0.0) {
    const double usable =
        std::max(0.0, disk_budget - base_io) / amplification;
    disk_scale = std::min(1.0, usable / blocks_wanted_total);
    throttled_disk_blocks_ += blocks_wanted_total * (1.0 - disk_scale);
    if (disk_scale < 1.0) {
      MachineMetrics::get().disk_throttle_ticks.add();
    }
    if (traced && disk_scale < 1.0) {
      trace.instant_sim("device", "disk-throttled", now,
                        static_cast<std::uint64_t>(id_),
                        blocks_wanted_total * (1.0 - disk_scale));
    }
  }

  double guest_blocks_total = 0.0;
  double guest_tx_kbits_total = 0.0;
  double intra_kbits = 0.0;
  double outbound_kbits = 0.0;
  pending_out_.clear();
  std::vector<PendingOut>& pending_out = pending_out_;

  for (std::size_t i = 0; i < guests_.size(); ++i) {
    auto& g = guests_[i];
    const ProcessDemand& d = *demands_[i];
    const double frac =
        d.cpu_pct > 0.0 ? sched.granted_pct[i] / d.cpu_pct : 1.0;

    const double blocks = blocks_wanted[i] * disk_scale;
    g.dom->charge_io(blocks);
    guest_blocks_total += blocks;

    for (const NetFlow& f : d.flows) {
      const double kbits = jitter(f.kbits * frac, costs_.activity_jitter);
      if (kbits <= 0.0) continue;
      DomU* local_peer = (!f.target.is_external() && f.target.pm_id == id_)
                             ? find_vm(f.target.vm_name)
                             : nullptr;
      if (local_peer != nullptr) {
        // Bridge-local delivery: never touches the physical NIC
        // (Fig. 5(a): zero PM bandwidth for intra-PM communication).
        g.dom->charge_tx(kbits);
        guest_tx_kbits_total += kbits;
        intra_kbits += kbits;
        local_peer->deliver(kbits, f.tag, now);
      } else {
        // Remote, external, or a peer that has been live-migrated
        // away: goes out via the NIC; the cluster router relocates
        // flows whose addressed PM no longer hosts the VM.
        pending_out.push_back(PendingOut{&f.target, kbits, f.tag});
        outbound_kbits += kbits;
      }
    }
    g.dom->refresh_memory();
  }

  // ---- 4c. NIC saturation: outbound guest traffic, its framing
  // overhead and the injected migration stream share the line rate. ----
  const double bw_overhead_frac = multi ? costs_.pm_bw_overhead_frac_multi
                                        : costs_.pm_bw_overhead_frac_single;
  const double base_bw =
      jitter(costs_.pm_base_bw_kbps * dt, costs_.pm_base_bw_jitter);
  const double nic_budget = spec_.nic_kbps * dt;
  double nic_scale = 1.0;
  const double nic_wanted =
      outbound_kbits * (1.0 + bw_overhead_frac) + injected_tx + base_bw;
  if (nic_wanted > nic_budget && outbound_kbits > 0.0) {
    const double usable = std::max(0.0, nic_budget - injected_tx - base_bw) /
                          (1.0 + bw_overhead_frac);
    nic_scale = std::min(1.0, usable / outbound_kbits);
    throttled_nic_kbits_ += outbound_kbits * (1.0 - nic_scale);
    if (nic_scale < 1.0) {
      MachineMetrics::get().nic_throttle_ticks.add();
    }
    if (traced && nic_scale < 1.0) {
      trace.instant_sim("device", "nic-throttled", now,
                        static_cast<std::uint64_t>(id_),
                        outbound_kbits * (1.0 - nic_scale));
    }
  }
  double outbound_sent = 0.0;
  for (std::size_t i = 0; i < pending_out.size(); ++i) {
    const double kbits = pending_out[i].kbits * nic_scale;
    if (kbits <= 0.0) continue;
    outbound_sent += kbits;
    outbox_.push_back(
        OutboundFlow{*pending_out[i].target, kbits, pending_out[i].tag});
  }
  // Attribute sent traffic back to the guests proportionally.
  if (outbound_kbits > 0.0) {
    std::size_t flow_idx = 0;
    for (std::size_t i = 0; i < guests_.size(); ++i) {
      const ProcessDemand& d = *demands_[i];
      for (const NetFlow& f : d.flows) {
        if (!f.target.is_external() && f.target.pm_id == id_) continue;
        if (flow_idx < pending_out.size()) {
          const double kbits = pending_out[flow_idx].kbits * nic_scale;
          guests_[i].dom->charge_tx(kbits);
          guest_tx_kbits_total += kbits;
          ++flow_idx;
        }
      }
    }
  }

  // ---- 5. Physical devices. --------------------------------------------
  // Virtual-disk striping amplifies every guest block (Fig. 2(b)):
  // whole-stripe read-modify-writes plus journal, sampled from the
  // stripe geometry, on top of the PM's background I/O (Sec. III-C:
  // 18.8 blocks/s).
  devices_.disk_blocks += vdisk_.physical_blocks(guest_blocks_total) + base_io;

  // NIC: outbound guest traffic plus fractional framing/ARP overhead
  // (Fig. 2(d): ~400 B/s for one VM; Sec. IV-B: 3 % with co-location)
  // plus the constant background chatter (254 B/s) and any injected
  // Dom0-mediated stream.
  devices_.nic_kbits +=
      outbound_sent * (1.0 + bw_overhead_frac) + injected_tx + base_bw;

  // ---- 6. Dom0 (driver domain) CPU. -------------------------------------
  const double net_kbps_inter =
      (outbound_sent + inbound_inter_kbits + injected_tx + injected_rx) / dt;
  const double net_kbps_intra = intra_kbits / dt;
  const double blocks_per_s = guest_blocks_total / dt;

  double dom0_demand =
      jitter(costs_.dom0_base_cpu_pct, costs_.dom0_base_cpu_jitter) +
      (multi ? costs_.dom0_coloc_cpu_pct : 0.0) + dom0_ctrl_response() +
      costs_.dom0_cpu_per_kbps_inter * net_kbps_inter +
      costs_.dom0_cpu_per_kbps_intra * net_kbps_intra +
      costs_.dom0_cpu_per_block * blocks_per_s + dom0_.background_cpu_pct();
  const double dom0_granted =
      std::min(dom0_demand, spec_.dom0_cpu_capacity_pct());
  dom0_.charge_cpu(dom0_granted, dt);

  // ---- 6. Hypervisor CPU (traps + scheduling). --------------------------
  const double guest_net_kbps =
      (guest_tx_kbits_total + inbound_inter_kbits) / dt;
  const double hyp_demand =
      jitter(costs_.hyp_base_cpu_pct, costs_.hyp_base_cpu_jitter) +
      hyp_sched_response() + costs_.hyp_cpu_per_kbps * guest_net_kbps +
      costs_.hyp_cpu_per_block * blocks_per_s;
  hypervisor_.cpu_core_seconds += hyp_demand / 100.0 * dt;
}

MachineSnapshot PhysicalMachine::snapshot(util::SimMicros now) const {
  MachineSnapshot snap;
  snapshot_into(now, snap);
  return snap;
}

void PhysicalMachine::snapshot_into(util::SimMicros now,
                                    MachineSnapshot& out) const {
  out.time = now;
  // Assign fields in place: the string assignments and the guest
  // vector reuse their existing capacity, so a periodic sampler only
  // allocates on its first sample (or when a VM appears).
  out.dom0.name = dom0_.name();
  out.dom0.counters = dom0_.counters();
  out.hypervisor = hypervisor_;
  out.guests.resize(guests_.size());
  for (std::size_t i = 0; i < guests_.size(); ++i) {
    out.guests[i].name = guests_[i].dom->name();
    out.guests[i].counters = guests_[i].dom->counters();
  }
  out.devices = devices_;
}

double PhysicalMachine::last_granted_pct(const std::string& vm_name) const {
  for (const auto& g : guests_) {
    if (g.dom->name() == vm_name) return g.last_granted_pct;
  }
  throw util::ContractViolation("no such VM: " + vm_name);
}

double PhysicalMachine::memory_in_use_mib() const noexcept {
  double total = dom0_.counters().mem_mib;
  for (const auto& g : guests_) total += g.dom->counters().mem_mib;
  return total;
}

}  // namespace voprof::sim
