#pragma once
/// \file cluster.hpp
/// A cluster of simulated PMs plus the inter-PM network router. The
/// cluster is the single tick listener registered with the engine: it
/// ticks every machine, then routes the outbound flows (delivery lands
/// in the receivers' inboxes and is processed on their next tick —
/// a one-tick wire latency, invisible at the 1 s sampling interval).
///
/// What the substrate did — VM lifecycle, scheduler contention, device
/// throttling, live migrations — goes straight onto the sim clock of
/// obs::TraceCollector::global() as instants (tid = PM id) whenever
/// that collector is enabled.

#include <memory>
#include <vector>

#include "voprof/util/rng.hpp"
#include "voprof/xensim/cost_model.hpp"
#include "voprof/xensim/engine.hpp"
#include "voprof/xensim/machine.hpp"
#include "voprof/xensim/migration.hpp"
#include "voprof/xensim/network.hpp"
#include "voprof/xensim/spec.hpp"

namespace voprof::sim {

class Cluster final : public TickListener {
 public:
  /// Creates a cluster bound to `engine`; registers itself as a tick
  /// listener. `seed` drives all stochastic behaviour in the cluster;
  /// `fabric` describes the inter-PM switch.
  Cluster(Engine& engine, CostModel costs, std::uint64_t seed,
          FabricSpec fabric = {});
  ~Cluster() override;

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Add a PM with the given hardware spec; returns a stable reference.
  PhysicalMachine& add_machine(MachineSpec spec);
  [[nodiscard]] std::size_t machine_count() const noexcept {
    return machines_.size();
  }
  [[nodiscard]] PhysicalMachine& machine(std::size_t idx);
  [[nodiscard]] const PhysicalMachine& machine(std::size_t idx) const;
  [[nodiscard]] PhysicalMachine* machine_by_id(int id) noexcept;

  [[nodiscard]] Engine& engine() noexcept { return engine_; }
  [[nodiscard]] const CostModel& costs() const noexcept { return costs_; }

  /// Total kilobits dropped because they addressed a missing PM/VM
  /// (diagnostic; should stay zero in well-formed experiments).
  [[nodiscard]] double dropped_kbits() const noexcept { return dropped_kbits_; }

  /// Live-migration engine bound to this cluster (ticked right after
  /// the machines each tick).
  [[nodiscard]] MigrationEngine& migration() noexcept { return migration_; }
  [[nodiscard]] const MigrationEngine& migration() const noexcept {
    return migration_;
  }

  /// The inter-PM switching fabric.
  [[nodiscard]] NetworkFabric& fabric() noexcept { return fabric_; }
  [[nodiscard]] const NetworkFabric& fabric() const noexcept {
    return fabric_;
  }

  /// Locate a VM by name anywhere in the cluster (the bridge/ARP view
  /// after migrations). Returns the hosting machine or nullptr.
  [[nodiscard]] PhysicalMachine* locate_vm(const std::string& vm_name) noexcept;

  void tick(util::SimMicros now, double dt) override;

 private:
  Engine& engine_;
  CostModel costs_;
  util::Rng rng_;
  std::vector<std::unique_ptr<PhysicalMachine>> machines_;
  MigrationEngine migration_;
  NetworkFabric fabric_;
  double dropped_kbits_ = 0.0;
};

}  // namespace voprof::sim
