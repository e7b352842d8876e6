#include "simfft/experiment.hpp"

#include <limits>
#include <memory>
#include <stdexcept>

#include "paper/fft_plan.hpp"
#include "simfft/footprint.hpp"
#include "simfft/sim_driver.hpp"
#include "util/bit_ops.hpp"

namespace c64fft::simfft {

std::string to_string(SimVariant v) {
  switch (v) {
    case SimVariant::kCoarse: return "coarse";
    case SimVariant::kCoarseHash: return "coarse hash";
    case SimVariant::kFineWorst: return "fine worst";
    case SimVariant::kFineBest: return "fine best";
    case SimVariant::kFineHash: return "fine hash";
    case SimVariant::kFineGuided: return "fine guided";
    case SimVariant::kFineCustom: return "fine custom";
  }
  return "?";
}

double fft_gflops(std::uint64_t n, double seconds) {
  if (seconds <= 0.0) return 0.0;
  return 5.0 * static_cast<double>(n) * static_cast<double>(util::ilog2(n)) / seconds / 1e9;
}

namespace {

struct SingleRun {
  c64::SimResult sim;
  std::vector<std::uint64_t> bank_totals;
};

SingleRun run_once(SimVariant v, const fft::FftPlan& plan, const c64::ChipConfig& cfg,
                   const fft::FineOrdering& ordering, std::uint64_t trace_window,
                   c64::BankTrace* trace) {
  const fft::TwiddleLayout layout =
      (v == SimVariant::kCoarseHash || v == SimVariant::kFineHash)
          ? fft::TwiddleLayout::kBitReversed
          : fft::TwiddleLayout::kLinear;
  FootprintBuilder fp(plan, cfg, layout);

  std::unique_ptr<FftSimProgramBase> program;
  switch (v) {
    case SimVariant::kCoarse:
    case SimVariant::kCoarseHash:
      program = std::make_unique<CoarseSimProgram>(fp, cfg);
      break;
    case SimVariant::kFineGuided:
      program = std::make_unique<GuidedSimProgram>(fp, cfg);
      break;
    default:
      program = std::make_unique<FineSimProgram>(fp, cfg, ordering);
      break;
  }

  std::unique_ptr<c64::BankTrace> local;
  c64::BankTrace* t = trace;
  if (!t) {
    local = std::make_unique<c64::BankTrace>(cfg.dram_banks, trace_window);
    t = local.get();
  }
  c64::SimEngine engine(cfg, *program, t);
  SingleRun out;
  out.sim = engine.run();
  out.bank_totals = t->totals();
  return out;
}

}  // namespace

SimRunResult run_fft_sim(SimVariant v, std::uint64_t n, const c64::ChipConfig& cfg,
                         const SimFftOptions& opts, c64::BankTrace* trace) {
  const fft::FftPlan plan(n, opts.radix_log2);

  SimRunResult result;
  result.name = to_string(v);

  const fft::FineOrdering best_default{codelet::PoolPolicy::kLifo,
                                       fft::SeedOrder::kNatural, 1};
  switch (v) {
    case SimVariant::kCoarse:
    case SimVariant::kCoarseHash:
    case SimVariant::kFineGuided: {
      auto run = run_once(v, plan, cfg, best_default, opts.trace_window, trace);
      result.sim = run.sim;
      result.bank_totals = std::move(run.bank_totals);
      break;
    }
    case SimVariant::kFineHash: {
      auto run = run_once(v, plan, cfg, best_default, opts.trace_window, trace);
      result.sim = run.sim;
      result.bank_totals = std::move(run.bank_totals);
      result.ordering = best_default;
      break;
    }
    case SimVariant::kFineCustom: {
      auto run = run_once(v, plan, cfg, opts.ordering, opts.trace_window, trace);
      result.sim = run.sim;
      result.bank_totals = std::move(run.bank_totals);
      result.ordering = opts.ordering;
      break;
    }
    case SimVariant::kFineWorst:
    case SimVariant::kFineBest: {
      // Sweep the orderings (without tracing), keep the envelope, then
      // re-run the chosen ordering with the caller's trace attached.
      const bool want_worst = v == SimVariant::kFineWorst;
      std::uint64_t best_cycles =
          want_worst ? 0 : std::numeric_limits<std::uint64_t>::max();
      fft::FineOrdering chosen = best_default;
      for (const auto& o : fft::ordering_sweep()) {
        auto run = run_once(SimVariant::kFineCustom, plan, cfg, o, opts.trace_window,
                            nullptr);
        const bool better = want_worst ? run.sim.cycles > best_cycles
                                       : run.sim.cycles < best_cycles;
        if (better) {
          best_cycles = run.sim.cycles;
          chosen = o;
        }
      }
      auto run =
          run_once(SimVariant::kFineCustom, plan, cfg, chosen, opts.trace_window, trace);
      result.sim = run.sim;
      result.bank_totals = std::move(run.bank_totals);
      result.ordering = chosen;
      break;
    }
  }

  result.gflops = fft_gflops(n, result.sim.seconds);
  return result;
}

std::vector<SimRunResult> run_all_variants(std::uint64_t n, const c64::ChipConfig& cfg,
                                           const SimFftOptions& opts) {
  std::vector<SimRunResult> out;
  for (SimVariant v :
       {SimVariant::kCoarse, SimVariant::kCoarseHash, SimVariant::kFineWorst,
        SimVariant::kFineBest, SimVariant::kFineHash, SimVariant::kFineGuided})
    out.push_back(run_fft_sim(v, n, cfg, opts));
  return out;
}

}  // namespace c64fft::simfft
