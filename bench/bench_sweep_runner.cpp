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
#include <string>
#include <vector>

#include "harness.hpp"
#include "voprof/runner/runner.hpp"
#include "voprof/util/cli.hpp"

int main(int argc, char** argv) {
  using namespace voprof;
  namespace harness = voprof::bench::harness;

  using Kind = util::FlagSpec::Kind;
  using Bound = util::FlagSpec::Bound;
  const tools::CommandLine cl = harness::command_line(
      argv[0], "[--jobs N] [--out FILE] [--duration SEC] [--seed S]",
      {runner::jobs_flag(),
       {"out"},
       {"duration", Kind::kNumber, Bound::kPositive},
       {"seed", Kind::kInteger, Bound::kNonNegative}});
  const util::CliArgs args =
      cl.parse_or_exit(std::vector<std::string>(argv + 1, argv + argc));
  runner::MicroSweepConfig config;
  config.duration = util::seconds(args.get_double("duration", 30.0));
  config.base_seed = static_cast<std::uint64_t>(args.get_int("seed", 42));
  const std::string out_path = args.get_or("out", "");

  const auto t0 = std::chrono::steady_clock::now();
  const util::CsvDocument csv =
      runner::run_micro_sweep(config, runner::options_from_cli(args));
  harness::Session::global().record_section(
      "micro_sweep",
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count(),
      0.0, static_cast<double>(csv.row_count()));
  if (out_path.empty()) {
    std::cout << csv.str();
  } else {
    if (const util::Result<bool> saved = csv.save(out_path); !saved.ok()) {
      std::cerr << "bench_sweep_runner: " << saved.error().to_string()
                << '\n';
      return 1;
    }
    std::cout << "wrote " << csv.row_count() << " rows to " << out_path
              << '\n';
  }
  return 0;
}
