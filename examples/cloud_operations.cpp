/// \file cloud_operations.cpp
/// Domain example 7 — a day in the life of an overhead-aware cloud:
/// diurnal tenant workloads rise toward a midday peak, the hotspot
/// controller watches the model-predicted host utilization, and live
/// migrations rebalance the cluster when a host's *true* load (guests
/// + Dom0 + hypervisor) crests. A xentrace-style digest, read from the
/// obs registry counters before and after the day, shows what the
/// substrate did.
///
/// Run: ./cloud_operations [day_seconds]

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>

#include "voprof/obs/metrics.hpp"
#include "voprof/placement/hotspot.hpp"
#include "voprof/util/table.hpp"
#include "voprof/util/units.hpp"
#include "voprof/voprof.hpp"
#include "voprof/workloads/trace.hpp"
#include "voprof/xensim/cluster.hpp"

int main(int argc, char** argv) {
  using namespace voprof;
  double day_s = 240.0;  // compressed "day"
  if (argc > 1) day_s = std::atof(argv[1]);

  std::cout << "[1/3] Training the overhead model...\n";
  model::TrainerConfig tcfg;
  tcfg.duration = util::seconds(40.0);
  const model::TrainedModels models =
      model::Trainer(tcfg).train(model::RegressionMethod::kLms);

  std::cout << "[2/3] Booting a 3-host cluster with 6 diurnal tenants "
               "(packed tight on host 0/1)...\n";
  sim::Engine engine;
  sim::Cluster cluster(engine, sim::CostModel{}, 2026);
  for (int i = 0; i < 3; ++i) cluster.add_machine(sim::MachineSpec{});

  // Tenants with staggered phases: some peak together at "midday".
  for (int i = 0; i < 6; ++i) {
    wl::DiurnalSpec spec;
    spec.period_s = day_s;
    spec.cpu_peak_pct = 70.0 + 5.0 * (i % 3);
    spec.bw_peak_kbps = 800.0 + 250.0 * (i % 2);
    sim::VmSpec vm_spec;
    vm_spec.name = "tenant" + std::to_string(i + 1);
    const int host = i < 3 ? 0 : 1;  // hosts 0/1 packed, host 2 spare
    sim::DomU& vm = cluster.machine(static_cast<std::size_t>(host))
                        .add_vm(vm_spec);
    vm.attach(std::make_unique<wl::TraceWorkload>(
        wl::make_diurnal_trace(spec, 100 + static_cast<std::uint64_t>(i)),
        sim::NetTarget{}, /*loop=*/true));
  }

  place::HotspotConfig hcfg;
  hcfg.check_interval = util::seconds(5.0);
  hcfg.cpu_threshold_pct = 200.0;
  hcfg.consolidate = true;  // pack the fleet back when the day cools off
  hcfg.consolidate_below_pct = 110.0;
  place::HotspotController controller(cluster, &models.multi, {0, 1, 2},
                                      hcfg);
  controller.start();

  // The xentrace digest: registry counters as deltas over the day.
  const char* const digest[] = {"machine.contention_episodes",
                                "machine.disk_throttle_ticks",
                                "machine.nic_throttle_ticks"};
  std::uint64_t before[3] = {};
  for (int i = 0; i < 3; ++i) {
    before[i] = obs::Registry::global().counter(digest[i]).value();
  }

  std::cout << "[3/3] Simulating " << util::fmt(day_s, 0)
            << " s (one compressed day)...\n\n";
  // Sample the controller's view every 1/8 day.
  util::AsciiTable t("Model-predicted host CPU through the day (%)");
  t.set_header({"time", "host0", "host1", "host2", "migrations so far"});
  for (int step = 1; step <= 8; ++step) {
    engine.run_for(util::seconds(day_s / 8.0));
    t.add_row({util::fmt(day_s * step / 8.0, 0) + "s",
               util::fmt(controller.last_predicted_cpu(0), 1),
               util::fmt(controller.last_predicted_cpu(1), 1),
               util::fmt(controller.last_predicted_cpu(2), 1),
               std::to_string(controller.migrations_triggered())});
  }
  controller.stop();
  std::cout << t.str() << '\n';

  std::cout << "Actions:\n";
  for (const auto& a : controller.actions()) {
    const bool consolidation =
        a.kind == place::HotspotAction::Kind::kConsolidation;
    std::printf("  t=%6.1fs  %-12s %-8s PM%d -> PM%d (source predicted "
                "at %.1f%%)\n",
                util::to_seconds(a.time),
                consolidation ? "consolidate" : "mitigate",
                a.vm_name.c_str(), a.from_pm, a.to_pm, a.predicted_cpu);
  }
  if (controller.actions().empty()) {
    std::cout << "  (none needed)\n";
  }

  std::cout << "\nxentrace digest (obs counters over the day):\n";
  for (int i = 0; i < 3; ++i) {
    std::printf("  %-28s %llu\n", digest[i],
                static_cast<unsigned long long>(
                    obs::Registry::global().counter(digest[i]).value() -
                    before[i]));
  }
  std::printf("  %-28s %zu\n", "hotspot migrations",
              controller.migrations_triggered());

  std::cout << "\nFinal layout: ";
  for (std::size_t i = 0; i < 3; ++i) {
    std::printf("host%zu=%zu VMs  ", i, cluster.machine(i).vm_count());
  }
  std::cout << "\n(The spare host absorbs the midday peak and the fleet "
               "consolidates back as the evening cools - both decisions "
               "driven by the paper's overhead model, which sees the "
               "Dom0/hypervisor share a raw VM-sum controller would "
               "miss.)\n";
  return 0;
}
