#include "paper/plan_stats.hpp"

#include <gtest/gtest.h>

namespace c64fft::fft {
namespace {

TEST(TrafficCensus, AccessCountsMatchPlanArithmetic) {
  const FftPlan plan(1ULL << 15, 6);
  const TrafficCensus census(plan, TwiddleLayout::kLinear);
  ASSERT_EQ(census.stages().size(), 3u);
  for (const auto& st : census.stages()) {
    std::uint64_t data = 0, tw = 0;
    for (unsigned b = 0; b < 4; ++b) {
      data += st.data_accesses[b];
      tw += st.twiddle_accesses[b];
    }
    EXPECT_EQ(data, plan.tasks_per_stage() * plan.radix() * 2) << st.stage;
    EXPECT_EQ(tw, plan.tasks_per_stage() * plan.twiddles_per_task(st.stage)) << st.stage;
  }
}

TEST(TrafficCensus, EarlyStageTwiddlesPinToBankZero) {
  // The paper's Section II observation, as exact arithmetic.
  const FftPlan plan(1ULL << 18, 6);
  const TrafficCensus census(plan, TwiddleLayout::kLinear);
  for (std::uint32_t s = 0; s < 2; ++s) {
    const auto& st = census.stages()[s];
    EXPECT_EQ(st.twiddle_accesses[0],
              plan.tasks_per_stage() * plan.twiddles_per_task(s));
    for (unsigned b = 1; b < 4; ++b) EXPECT_EQ(st.twiddle_accesses[b], 0u) << b;
  }
}

TEST(TrafficCensus, PaperThreeTimesObservation) {
  // "Bank 0 is accessed three times more than the other banks": in an
  // early stage, bank 0 carries ~(63 + 32) accesses per codelet against
  // ~32 on each other bank => bank0 ~= 3x bank1 and ~2x the mean.
  const FftPlan plan(1ULL << 18, 6);
  const TrafficCensus census(plan, TwiddleLayout::kLinear);
  const auto& st = census.stages()[1];
  const double ratio = static_cast<double>(st.bank_total(0)) /
                       static_cast<double>(st.bank_total(1));
  EXPECT_GT(ratio, 2.5);
  EXPECT_LT(ratio, 3.5);
  EXPECT_NEAR(st.imbalance(), 2.0, 0.1);
}

TEST(TrafficCensus, LastStageIsBalanced) {
  const FftPlan plan(1ULL << 18, 6);
  const TrafficCensus census(plan, TwiddleLayout::kLinear);
  EXPECT_LT(census.stages().back().imbalance(), 1.2);
}

TEST(TrafficCensus, HashBalancesEveryStage) {
  const FftPlan plan(1ULL << 15, 6);
  const TrafficCensus census(plan, TwiddleLayout::kBitReversed);
  for (const auto& st : census.stages()) EXPECT_LT(st.imbalance(), 1.25) << st.stage;
  EXPECT_LT(census.total_imbalance(), 1.15);
}

TEST(TrafficCensus, DataAccessesAreBalancedAcrossTasks) {
  // Within a stage the *data* stream is bank-balanced (each task's data
  // may sit in one bank, but tasks rotate banks).
  const FftPlan plan(1ULL << 15, 6);
  const TrafficCensus census(plan, TwiddleLayout::kLinear);
  for (const auto& st : census.stages())
    for (unsigned b = 1; b < 4; ++b)
      EXPECT_EQ(st.data_accesses[b], st.data_accesses[0]) << st.stage << " " << b;
}

TEST(TrafficCensus, TotalsAndInvariantBound) {
  const FftPlan plan(1ULL << 12, 6);
  const TrafficCensus lin(plan, TwiddleLayout::kLinear);
  const TrafficCensus rev(plan, TwiddleLayout::kBitReversed);
  // Hash moves accesses between banks but conserves the total.
  std::uint64_t lin_sum = 0, rev_sum = 0;
  for (auto v : lin.totals()) lin_sum += v;
  for (auto v : rev.totals()) rev_sum += v;
  EXPECT_EQ(lin_sum, rev_sum);
  // Balancing strictly lowers the schedule-invariant bound.
  EXPECT_LT(rev.schedule_invariant_bound_cycles(8.0),
            lin.schedule_invariant_bound_cycles(8.0));
  // Bound sanity: busiest bank occupancy >= total/banks.
  EXPECT_GE(lin.schedule_invariant_bound_cycles(8.0),
            static_cast<double>(lin_sum) * 16.0 / 8.0 / 4.0);
}

TEST(TrafficCensus, BaseOffsetMovesTheHotBank) {
  const FftPlan plan(1ULL << 12, 6);
  const TrafficCensus census(plan, TwiddleLayout::kLinear, 4, 64, 0, 128);
  // Twiddle base on bank 2: stage 0's twiddle hotspot (all indices are
  // multiples of 4 elements there) follows the base bank.
  const auto& st = census.stages()[0];
  EXPECT_EQ(st.twiddle_accesses[2],
            plan.tasks_per_stage() * plan.twiddles_per_task(0));
  EXPECT_EQ(st.twiddle_accesses[0], 0u);
}

}  // namespace
}  // namespace c64fft::fft
