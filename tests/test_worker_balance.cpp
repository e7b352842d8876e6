// The dynamic-balance claim of the fine-grain model (the prior-work
// property the paper builds on): the team's shared claim counter spreads
// indices evenly over the workers, even when their costs are skewed. Each
// test counts per-worker executions inside its own bodies.

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "codelet/team.hpp"
#include "util/stats.hpp"

namespace c64fft::codelet {
namespace {

/// Runs `count` indices of `body` on `team`, adding each worker's
/// executions to `per_worker` (one slot per worker, written only by it).
template <typename Body>
void count_per_worker(Team& team, std::uint64_t count,
                      std::vector<double>& per_worker, const Body& body) {
  per_worker.resize(team.workers(), 0.0);
  team.parallel_for(count, [&](std::uint64_t i, unsigned w) {
    body(i);
    per_worker[w] += 1.0;
  });
}

double sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

TEST(WorkerBalance, UniformCodeletsSpreadEvenly) {
  Team team(4);
  std::vector<double> per_worker;
  count_per_worker(team, 400, per_worker, [](std::uint64_t) {
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  });
  ASSERT_EQ(per_worker.size(), 4u);
  EXPECT_EQ(sum(per_worker), 400.0);
  // Dynamic claiming keeps the spread tight even on a loaded machine.
  EXPECT_LT(util::imbalance_ratio(per_worker), 2.0);
}

TEST(WorkerBalance, SkewedCodeletCostsStillBalance) {
  // One in eight indices is 20x more expensive; the claims must absorb it.
  Team team(4);
  std::vector<double> per_worker;
  count_per_worker(team, 160, per_worker, [](std::uint64_t i) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(i % 8 == 0 ? 400 : 20));
  });
  EXPECT_EQ(sum(per_worker), 160.0);
  EXPECT_LT(util::imbalance_ratio(per_worker), 2.5);
}

TEST(WorkerBalance, SingleWorkerRatioIsOne) {
  Team team(1);
  std::vector<double> per_worker;
  count_per_worker(team, 2, per_worker, [](std::uint64_t) {});
  EXPECT_DOUBLE_EQ(util::imbalance_ratio(per_worker), 1.0);
}

TEST(WorkerBalance, EmptyCallRatioIsOne) {
  Team team(3);
  std::vector<double> per_worker;
  count_per_worker(team, 0, per_worker, [](std::uint64_t) {});
  EXPECT_DOUBLE_EQ(util::imbalance_ratio(per_worker), 1.0);
}

TEST(WorkerBalance, AccumulatesAcrossPhases) {
  Team team(2);
  std::vector<double> per_worker;
  count_per_worker(team, 10, per_worker, [](std::uint64_t) {});
  count_per_worker(team, 10, per_worker, [](std::uint64_t) {});
  EXPECT_EQ(sum(per_worker), 20.0);
}

}  // namespace
}  // namespace c64fft::codelet
