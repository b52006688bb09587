/// \file bench_sweep_runner.cpp
/// Demo of the deterministic parallel runner: the Table II
/// (kind x intensity level) sweep for one VM, one independent
/// simulation per cell fanned over `--jobs N` workers, emitted as CSV.
/// The output is byte-identical for every jobs value — rerun with
/// `--jobs 1` and `--jobs 8` and diff.
///
/// Flags:
///   --jobs N        workers (default: all hardware threads; 1 = serial)
///   --out FILE      write the CSV to FILE instead of stdout
///   --duration SEC  simulated seconds per cell (default 30)
///   --seed S        base seed; cell i is seeded seed_for(S, i)

#include <chrono>
#include <iostream>

#include "harness.hpp"
#include "voprof/runner/runner.hpp"
#include "voprof/util/assert.hpp"
#include "voprof/util/cli.hpp"

int main(int argc, char** argv) {
  using namespace voprof;
  namespace harness = voprof::bench::harness;

  runner::RunOptions opts;
  runner::MicroSweepConfig config;
  std::string out_path;
  harness::parse_cli_or_exit(
      argc, argv, "[--jobs N] [--out FILE] [--duration SEC] [--seed S]",
      [&] {
        const util::CliArgs args = util::CliArgs::parse(argc, argv);
        VOPROF_REQUIRE_MSG(args.command().empty(),
                           "unexpected positional argument: " +
                               args.command());
        for (const std::string& name : args.flag_names()) {
          VOPROF_REQUIRE_MSG(name == "jobs" || name == "out" ||
                                 name == "duration" || name == "seed",
                             "unknown flag --" + name);
        }
        opts.jobs = args.get_int("jobs", 0);
        config.duration = util::seconds(args.get_double("duration", 30.0));
        config.base_seed =
            static_cast<std::uint64_t>(args.get_int("seed", 42));
        out_path = args.get_or("out", "");
      });

  const auto t0 = std::chrono::steady_clock::now();
  const util::CsvDocument csv = runner::run_micro_sweep(config, opts);
  harness::Session::global().record_section(
      "micro_sweep",
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count(),
      0.0, static_cast<double>(csv.row_count()));
  if (out_path.empty()) {
    std::cout << csv.str();
  } else {
    csv.save(out_path);
    std::cout << "wrote " << csv.row_count() << " rows to " << out_path
              << '\n';
  }
  return 0;
}
