#include "voprof/xensim/migration.hpp"

#include <algorithm>

#include "voprof/obs/trace.hpp"
#include "voprof/util/assert.hpp"
#include "voprof/xensim/cluster.hpp"

namespace voprof::sim {

namespace {
/// MiB of resident memory -> Kb on the wire.
double mib_to_kbits(double mib) { return mib * 1024.0 * 8.0; }
}  // namespace

MigrationEngine::MigrationEngine(Cluster& cluster) : cluster_(cluster) {}

int MigrationEngine::start(const std::string& vm_name, int from_pm,
                           int to_pm, MigrationConfig config) {
  VOPROF_REQUIRE_MSG(from_pm != to_pm,
                     "migration source and destination must differ");
  PhysicalMachine* src = cluster_.machine_by_id(from_pm);
  PhysicalMachine* dst = cluster_.machine_by_id(to_pm);
  VOPROF_REQUIRE_MSG(src != nullptr, "unknown source PM");
  VOPROF_REQUIRE_MSG(dst != nullptr, "unknown destination PM");
  DomU* vm = src->find_vm(vm_name);
  VOPROF_REQUIRE_MSG(vm != nullptr, "VM not on source PM: " + vm_name);
  VOPROF_REQUIRE_MSG(dst->find_vm(vm_name) == nullptr,
                     "destination already hosts a VM named " + vm_name);
  for (const auto& a : active_) {
    VOPROF_REQUIRE_MSG(status_[static_cast<std::size_t>(a.id)].vm_name !=
                           vm_name,
                       "VM is already migrating: " + vm_name);
  }
  VOPROF_REQUIRE(config.rate_kbps > 0.0);
  VOPROF_REQUIRE(config.dirty_factor >= 0.0);

  MigrationStatus st;
  st.vm_name = vm_name;
  st.from_pm = from_pm;
  st.to_pm = to_pm;
  st.total_kbits =
      mib_to_kbits(vm->counters().mem_mib) * (1.0 + config.dirty_factor);
  st.started = cluster_.engine().now();
  const int id = static_cast<int>(status_.size());
  obs::TraceCollector::global().instant_sim(
      "migration", "migration-started", st.started,
      static_cast<std::uint64_t>(from_pm), st.total_kbits, vm_name);
  status_.push_back(st);
  active_.push_back(Active{id, config});
  return id;
}

const MigrationStatus& MigrationEngine::status(int id) const {
  VOPROF_REQUIRE(id >= 0 && static_cast<std::size_t>(id) < status_.size());
  return status_[static_cast<std::size_t>(id)];
}

std::size_t MigrationEngine::active_count() const noexcept {
  return active_.size();
}

void MigrationEngine::tick(util::SimMicros now, double dt) {
  for (std::size_t i = 0; i < active_.size();) {
    Active& a = active_[i];
    MigrationStatus& st = status_[static_cast<std::size_t>(a.id)];
    PhysicalMachine* src = cluster_.machine_by_id(st.from_pm);
    PhysicalMachine* dst = cluster_.machine_by_id(st.to_pm);
    DomU* vm = src != nullptr ? src->find_vm(st.vm_name) : nullptr;
    if (vm == nullptr || dst == nullptr) {
      st.failed = true;
      st.done = true;
      st.finished = now;
      obs::TraceCollector::global().instant_sim(
          "migration", "migration-failed", now,
          static_cast<std::uint64_t>(st.from_pm), st.sent_kbits, st.vm_name);
      active_.erase(active_.begin() + static_cast<long>(i));
      continue;
    }

    // Stream a chunk of memory through both Dom0s and NICs. The
    // injected traffic pays the normal netback CPU and NIC byte costs
    // on both machines next tick.
    const double chunk =
        std::min(a.config.rate_kbps * dt, st.total_kbits - st.sent_kbits);
    src->inject_dom0_traffic(chunk, 0.0);
    dst->inject_dom0_traffic(0.0, chunk);
    st.sent_kbits += chunk;

    if (st.sent_kbits >= st.total_kbits - 1e-9) {
      // Switchover: one tick of blackout (the domain misses at most
      // one scheduling quantum, ~10 ms, matching Xen's stop-and-copy).
      std::unique_ptr<DomU> moved = src->extract_vm(st.vm_name);
      VOPROF_ASSERT(moved != nullptr);
      dst->adopt_vm(std::move(moved));
      st.done = true;
      st.finished = now;
      obs::TraceCollector::global().instant_sim(
          "migration", "migration-finished", now,
          static_cast<std::uint64_t>(st.to_pm), st.total_kbits, st.vm_name);
      const int finished_id = a.id;
      active_.erase(active_.begin() + static_cast<long>(i));
      if (on_complete_) on_complete_(finished_id);
      continue;
    }
    ++i;
  }
}

}  // namespace voprof::sim
