#include "voprof/xensim/cluster.hpp"

#include <utility>

#include "voprof/util/assert.hpp"

namespace voprof::sim {

Cluster::Cluster(Engine& engine, CostModel costs, std::uint64_t seed,
                 FabricSpec fabric)
    : engine_(engine), costs_(costs), rng_(seed), migration_(*this),
      fabric_(fabric) {
  engine_.add_listener(this);
}

Cluster::~Cluster() { engine_.remove_listener(this); }

PhysicalMachine& Cluster::add_machine(MachineSpec spec) {
  const int id = static_cast<int>(machines_.size());
  machines_.push_back(std::make_unique<PhysicalMachine>(
      id, spec, costs_, rng_.split()));
  return *machines_.back();
}

PhysicalMachine& Cluster::machine(std::size_t idx) {
  VOPROF_REQUIRE(idx < machines_.size());
  return *machines_[idx];
}

const PhysicalMachine& Cluster::machine(std::size_t idx) const {
  VOPROF_REQUIRE(idx < machines_.size());
  return *machines_[idx];
}

PhysicalMachine* Cluster::machine_by_id(int id) noexcept {
  for (auto& m : machines_) {
    if (m->id() == id) return m.get();
  }
  return nullptr;
}

PhysicalMachine* Cluster::locate_vm(const std::string& vm_name) noexcept {
  for (auto& m : machines_) {
    if (m->find_vm(vm_name) != nullptr) return m.get();
  }
  return nullptr;
}

void Cluster::tick(util::SimMicros now, double dt) {
  for (auto& m : machines_) m->tick(now, dt);
  migration_.tick(now, dt);
  // Inter-PM flows enter the switching fabric after all machines
  // ticked; the fabric applies latency and aggregate capacity and
  // hands back whatever is deliverable. External targets leave the
  // cluster and are dropped after being counted at the sender's NIC.
  for (auto& m : machines_) {
    for (OutboundFlow& f : m->drain_outbox()) {
      if (f.target.is_external()) continue;
      fabric_.submit(f, m->id(), now);
    }
  }
  for (const FabricDelivery& d : fabric_.advance(now, dt)) {
    PhysicalMachine* dst = machine_by_id(d.to_pm);
    if (dst == nullptr || dst->find_vm(d.vm_name) == nullptr) {
      // The addressed PM no longer hosts the VM (live migration): the
      // bridge relearns and traffic follows the VM, like a migrated
      // domain keeping its IP/MAC.
      dst = locate_vm(d.vm_name);
      if (dst == nullptr) {
        dropped_kbits_ += d.kbits;
        continue;
      }
    }
    dst->enqueue_rx(d.vm_name, d.kbits, d.tag);
  }
}

}  // namespace voprof::sim
