// Cross-cutting invariants of the simulated machine — the properties that
// must hold for ANY scheduling decision, configuration, or input size.

#include <gtest/gtest.h>

#include "c64/peak_model.hpp"
#include "paper/plan_stats.hpp"
#include "simfft/experiment.hpp"

namespace c64fft::simfft {
namespace {

c64::ChipConfig cfg_with(unsigned tus) {
  c64::ChipConfig cfg;
  cfg.thread_units = tus;
  return cfg;
}

const std::vector<SimVariant> kAllVariants{
    SimVariant::kCoarse,   SimVariant::kCoarseHash, SimVariant::kFineWorst,
    SimVariant::kFineBest, SimVariant::kFineHash,   SimVariant::kFineGuided};

TEST(SimProperties, TrafficIsScheduleInvariant) {
  // Loads + stores + twiddles are fixed by the plan; no scheduler may
  // change the total or the per-bank byte distribution (hash variants
  // redistribute twiddles, so compare within layout groups).
  const std::uint64_t n = 1ULL << 13;
  std::vector<std::uint64_t> linear_bytes, hash_bytes;
  std::vector<std::vector<std::uint64_t>> linear_banks;
  for (auto v : kAllVariants) {
    const auto run = run_fft_sim(v, n, cfg_with(24));
    const bool hashed = v == SimVariant::kCoarseHash || v == SimVariant::kFineHash;
    (hashed ? hash_bytes : linear_bytes).push_back(run.sim.bytes);
    if (!hashed) linear_banks.push_back(run.sim.bank_bytes);
  }
  for (auto b : linear_bytes) EXPECT_EQ(b, linear_bytes.front());
  for (auto b : hash_bytes) EXPECT_EQ(b, hash_bytes.front());
  EXPECT_EQ(hash_bytes.front(), linear_bytes.front());  // layout moves, not adds
  for (const auto& banks : linear_banks) EXPECT_EQ(banks, linear_banks.front());
}

TEST(SimProperties, TrafficMatchesPlanStatsCensus) {
  // Simulator byte movement == pure-algebra census, element for element.
  const std::uint64_t n = 1ULL << 13;
  const fft::FftPlan plan(n, 6);
  for (auto layout : {fft::TwiddleLayout::kLinear, fft::TwiddleLayout::kBitReversed}) {
    const fft::TrafficCensus census(plan, layout);
    const auto v = layout == fft::TwiddleLayout::kLinear ? SimVariant::kCoarse
                                                         : SimVariant::kCoarseHash;
    const auto run = run_fft_sim(v, n, cfg_with(16));
    const auto totals = census.totals();
    ASSERT_EQ(run.sim.bank_bytes.size(), totals.size());
    for (unsigned b = 0; b < totals.size(); ++b)
      EXPECT_EQ(run.sim.bank_bytes[b], totals[b] * 16) << b;
  }
}

TEST(SimProperties, EveryVariantIsDeterministic) {
  const std::uint64_t n = 1ULL << 12;
  for (auto v : kAllVariants) {
    const auto a = run_fft_sim(v, n, cfg_with(32));
    const auto b = run_fft_sim(v, n, cfg_with(32));
    EXPECT_EQ(a.sim.cycles, b.sim.cycles) << to_string(v);
    EXPECT_EQ(a.bank_totals, b.bank_totals) << to_string(v);
  }
}

TEST(SimProperties, NothingBeatsTheoreticalPeak) {
  c64::PeakModel peak;
  for (std::uint64_t logn : {12ULL, 14ULL, 16ULL}) {
    const std::uint64_t n = 1ULL << logn;
    for (const auto& row : run_all_variants(n, cfg_with(156)))
      EXPECT_LE(row.gflops, peak.peak_gflops(n, 64) * 1.0001)
          << row.name << " n=2^" << logn;
  }
}

TEST(SimProperties, MoreBandwidthNeverHurts) {
  const std::uint64_t n = 1ULL << 13;
  auto slow = cfg_with(64);
  auto fast = cfg_with(64);
  fast.bank_bytes_per_cycle = 32.0;
  for (auto v : {SimVariant::kCoarse, SimVariant::kFineGuided}) {
    const auto a = run_fft_sim(v, n, slow);
    const auto b = run_fft_sim(v, n, fast);
    EXPECT_LE(b.sim.cycles, a.sim.cycles) << to_string(v);
  }
}

TEST(SimProperties, LowerLatencyNeverHurts) {
  const std::uint64_t n = 1ULL << 13;
  auto high = cfg_with(64);
  high.dram_latency = 300;
  auto low = cfg_with(64);
  low.dram_latency = 20;
  for (auto v : {SimVariant::kCoarse, SimVariant::kFineBest}) {
    EXPECT_LT(run_fft_sim(v, n, low).sim.cycles, run_fft_sim(v, n, high).sim.cycles)
        << to_string(v);
  }
}

TEST(SimProperties, CoarseMakespanMonotoneInBarrierCost) {
  const std::uint64_t n = 1ULL << 12;
  std::uint64_t prev = 0;
  for (unsigned barrier : {0u, 4096u, 65536u}) {
    auto cfg = cfg_with(32);
    cfg.barrier_cycles = barrier;
    const auto run = run_fft_sim(SimVariant::kCoarse, n, cfg);
    EXPECT_GE(run.sim.cycles, prev) << barrier;
    prev = run.sim.cycles;
  }
}

TEST(SimProperties, ScalesWithThreadUnits) {
  // 4x the TUs must give a substantially shorter run (we are latency-
  // bound, so near-linear: demand at least 2.5x).
  const std::uint64_t n = 1ULL << 14;
  for (auto v : {SimVariant::kCoarse, SimVariant::kFineGuided}) {
    const auto narrow = run_fft_sim(v, n, cfg_with(20));
    const auto wide = run_fft_sim(v, n, cfg_with(80));
    EXPECT_GT(static_cast<double>(narrow.sim.cycles),
              2.5 * static_cast<double>(wide.sim.cycles))
        << to_string(v);
  }
}

TEST(SimProperties, HashBalancesBankBytesForEveryScheduler) {
  const std::uint64_t n = 1ULL << 13;
  for (auto v : {SimVariant::kCoarseHash, SimVariant::kFineHash}) {
    const auto run = run_fft_sim(v, n, cfg_with(32));
    const double hot = static_cast<double>(run.sim.bank_bytes[0]);
    const double other = static_cast<double>(run.sim.bank_bytes[1]);
    EXPECT_LT(hot / other, 1.25) << to_string(v);
  }
}

TEST(SimProperties, RadixSweepCompletesAndConservesFlops) {
  const std::uint64_t n = 1ULL << 12;
  for (unsigned r = 2; r <= 7; ++r) {
    SimFftOptions opts;
    opts.radix_log2 = r;
    const auto run = run_fft_sim(SimVariant::kFineBest, n, cfg_with(32), opts);
    const fft::FftPlan plan(n, r);
    EXPECT_EQ(run.sim.tasks_completed, plan.total_tasks()) << r;
    std::uint64_t flops = 0;
    for (std::uint32_t s = 0; s < plan.stage_count(); ++s)
      flops += plan.flops_per_task(s) * plan.tasks_per_stage();
    EXPECT_EQ(flops, 5ULL * n * 12ULL) << r;  // 5 N log2 N regardless of radix
  }
}

TEST(SimProperties, SingleTuDegeneratesToSerialSum) {
  // With one TU and no contention, the makespan approximates the summed
  // codelet latencies; every variant lands within a few percent of every
  // other (scheduling freedom is worthless without parallelism).
  const std::uint64_t n = 1ULL << 12;
  std::vector<std::uint64_t> cycles;
  for (auto v : {SimVariant::kCoarse, SimVariant::kFineBest, SimVariant::kFineGuided})
    cycles.push_back(run_fft_sim(v, n, cfg_with(1)).sim.cycles);
  for (auto c : cycles) {
    EXPECT_GT(static_cast<double>(c), 0.97 * static_cast<double>(cycles[0]));
    EXPECT_LT(static_cast<double>(c), 1.03 * static_cast<double>(cycles[0]));
  }
}

}  // namespace
}  // namespace c64fft::simfft
