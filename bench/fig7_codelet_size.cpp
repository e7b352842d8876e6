// Fig. 7: "the best performance of the fine-grain FFT algorithm under
// various codelet sizes ... 64-point FFT codelets perform best" — sizes
// above 64 exceed the scratchpad and spill.

#include <cstdint>
#include <iostream>

#include "bench/bench_common.hpp"
#include "c64/peak_model.hpp"
#include "paper/fft_plan.hpp"
#include "simfft/experiment.hpp"
#include "simfft/footprint.hpp"

using namespace c64fft;

int main(int argc, char** argv) {
  util::CliParser cli(
      "Fig. 7: fine-grain FFT performance (GFLOPS) vs codelet size (data "
      "points per codelet), with the memory-bound theoretical peak per size");
  cli.add_int("logn", 18, "log2 of the input size");
  bench::add_chip_options(cli);
  if (!cli.parse(argc, argv)) return 0;

  const auto cfg = bench::chip_from_cli(cli);
  const std::uint64_t n = std::uint64_t{1} << cli.get_int("logn");
  c64::PeakModel peak{cfg};

  bench::banner("Fig. 7 — GFLOPS vs codelet size, N=2^" +
                std::to_string(cli.get_int("logn")) + ", " +
                std::to_string(cfg.thread_units) + " TUs");
  util::TextTable table(
      {"codelet_size", "gflops", "peak_gflops", "spills", "cycles"});

  double best_gflops = 0;
  std::uint64_t best_size = 0;
  // r = 1 is the EARTH-style 2-point task of the related-work comparison
  // (Thulasiraman et al.): one butterfly level per propagation step.
  for (unsigned r = 1; r <= 7; ++r) {
    const std::uint64_t size = std::uint64_t{1} << r;
    simfft::SimFftOptions opts;
    opts.radix_log2 = r;
    // "Best performance": the better of the two natural pool orders (the
    // full ordering sweep adds minutes for the small radices and never
    // changes the winner here).
    double gflops = 0;
    std::uint64_t cycles = 0;
    for (auto policy : {codelet::PoolPolicy::kLifo, codelet::PoolPolicy::kFifo}) {
      opts.ordering = {policy, fft::SeedOrder::kNatural, 1};
      const auto run = simfft::run_fft_sim(simfft::SimVariant::kFineCustom, n, cfg, opts);
      if (run.gflops > gflops) {
        gflops = run.gflops;
        cycles = run.sim.cycles;
      }
    }
    const fft::FftPlan plan(n, r);
    simfft::FootprintBuilder fp(plan, cfg, fft::TwiddleLayout::kLinear);
    table.add_row({util::TextTable::num(size), util::TextTable::num(gflops, 3),
                   util::TextTable::num(peak.peak_gflops_asymptotic(size), 3),
                   fp.spills() ? "yes" : "no", util::TextTable::num(cycles)});
    if (gflops > best_gflops) {
      best_gflops = gflops;
      best_size = size;
    }
  }
  bench::emit(table, cli);
  std::cout << "best codelet size: " << best_size << " points (paper: 64)\n";
  return 0;
}
