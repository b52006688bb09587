/// \file bench_baselines.cpp
/// Head-to-head comparison against the related-work baselines the
/// paper positions itself against (Sec. II): the naive sum-of-VMs
/// assumption of the placement literature [5]-[8], and a
/// Cherkasova-Gardner-style Dom0-from-I/O model [14]. All three
/// predict the PM CPU of the same RUBiS runs (Fig. 7's setup) and of
/// the four micro-benchmark sweeps.

#include <cmath>
#include <cstdio>
#include <iostream>

#include "model_common.hpp"
#include "voprof/core/baselines.hpp"

namespace {

using namespace voprof;

struct Errors {
  util::RunningStats paper, dom0io, naive;
};

void accumulate(Errors& e, const model::TrainedModels& models,
                const model::Dom0IoModel& dom0io,
                const model::UtilVec& vm_sum, int n, double actual_pm_cpu) {
  const model::NaiveSumModel naive;
  e.paper.add(std::abs(models.multi.predict_pm_cpu_indirect(vm_sum, n) -
                       actual_pm_cpu) /
              actual_pm_cpu * 100.0);
  e.dom0io.add(std::abs(dom0io.predict_pm_cpu(vm_sum, n) - actual_pm_cpu) /
               actual_pm_cpu * 100.0);
  e.naive.add(std::abs(naive.predict_pm_cpu(vm_sum, n) - actual_pm_cpu) /
              actual_pm_cpu * 100.0);
}

}  // namespace

int main(int argc, char** argv) {
  voprof::bench::harness::parse_cli_or_exit(argc, argv);
  std::cout << "=== Baseline comparison: PM-CPU prediction error ===\n\n"
               "  paper model : Eq. (1)-(3), LMS, indirect PM CPU "
               "(Sec. V-VI)\n"
               "  Dom0-I/O    : Cherkasova & Gardner [14] style - Dom0 "
               "CPU from guest I/O+BW only,\n"
               "                no hypervisor term\n"
               "  naive sum   : PM = sum of VMs (placement works "
               "[5]-[8])\n\n";

  const model::TrainedModels& models = bench::train_paper_models();
  const model::Dom0IoModel dom0io = model::Dom0IoModel::fit(
      models.data, model::RegressionMethod::kLms);

  util::AsciiTable t("Mean |error| (%) by validation workload");
  t.set_header({"validation set", "paper model", "Dom0-I/O [14]",
                "naive sum [5-8]"});

  // --- Micro-benchmark validation (fresh seeds). -----------------------
  model::TrainerConfig vcfg;
  vcfg.duration = util::seconds(30.0);
  vcfg.seed = 777;
  const model::Trainer vtrainer(vcfg);
  const struct {
    wl::WorkloadKind kind;
    const char* label;
    int n;
  } cells[] = {
      {wl::WorkloadKind::kCpu, "CPU sweep L4, 1 VM", 1},
      {wl::WorkloadKind::kCpu, "CPU sweep L4, 2 VMs", 2},
      {wl::WorkloadKind::kBw, "BW sweep L4, 1 VM", 1},
      {wl::WorkloadKind::kBw, "BW sweep L4, 2 VMs", 2},
      {wl::WorkloadKind::kIo, "I/O sweep L4, 2 VMs", 2},
  };
  for (const auto& cell : cells) {
    Errors e;
    const model::TrainingSet v = vtrainer.collect_run(cell.kind, 3, cell.n);
    for (const auto& row : v.rows()) {
      accumulate(e, models, dom0io, row.vm_sum, row.n_vms, row.pm.cpu);
    }
    t.add_row({cell.label, util::fmt(e.paper.mean(), 2),
               util::fmt(e.dom0io.mean(), 2), util::fmt(e.naive.mean(), 2)});
  }

  // --- RUBiS validation (Fig. 7 setup, 500 clients). -------------------
  {
    const bench::RubisPrediction run =
        bench::run_rubis_prediction(models.multi, 1, 500, 4242);
    // Recompute per-sample errors for the baselines from the stored
    // series: vm_sum per sample is predicted/measured inside `run`,
    // so redo a lightweight pass here instead.
    Errors e1;
    const auto& cpu1 = run.pm1.of(model::MetricIndex::kCpu);
    for (double err : cpu1.errors_pct) e1.paper.add(err);
    t.add_rule();
    t.add_row({"RUBiS PM1 (web), 500 clients",
               util::fmt(e1.paper.mean(), 2), "see below", "see below"});
  }
  std::cout << t.str() << '\n';

  // For RUBiS the baselines need the raw series; run once more and
  // evaluate all three models sample-by-sample.
  {
    sim::Engine engine;
    sim::Cluster cluster(engine, sim::CostModel{}, 999);
    cluster.add_machine(sim::MachineSpec{});
    cluster.add_machine(sim::MachineSpec{});
    cluster.add_machine(sim::MachineSpec{});
    rubis::DeployOptions opt;
    opt.clients = 500;
    const rubis::RubisInstance inst =
        rubis::deploy_rubis(cluster, 0, 1, 2, opt);
    engine.run_for(util::seconds(10.0));
    mon::MonitorScript mon(engine, cluster.machine(0));
    mon.start();
    engine.run_for(util::seconds(60.0));
    mon.stop();
    Errors e;
    const mon::SeriesSet& vm = mon.report().series(inst.web_vm);
    const mon::SeriesSet& pm =
        mon.report().series(mon::MeasurementReport::kPmKey);
    for (std::size_t i = 0; i < mon.report().sample_count(); ++i) {
      const model::UtilVec vm_sum{vm.cpu[i].value, vm.mem[i].value,
                                  vm.io[i].value, vm.bw[i].value};
      accumulate(e, models, dom0io, vm_sum, 1, pm.cpu[i].value);
    }
    std::printf(
        "RUBiS PM1 (web tier), per-second errors over 60 s:\n"
        "  paper model %.2f%%   Dom0-I/O %.2f%%   naive sum %.2f%%\n\n",
        e.paper.mean(), e.dom0io.mean(), e.naive.mean());
  }

  std::cout
      << "Reading:\n"
         "  - The naive sum misses the entire Dom0+hypervisor share "
         "(~20-45% of a core)\n"
         "    and is off by the largest margin everywhere - the paper's "
         "motivating point.\n"
         "  - The Dom0-I/O baseline recovers bandwidth-driven overhead "
         "but has no guest-CPU\n"
         "    term and no hypervisor model, so it degrades on CPU-heavy "
         "guests - the\n"
         "    specific critique in Sec. II ('neglected the CPU overhead "
         "in Xen hypervisor').\n";
  return voprof::bench::harness::finish();
}
