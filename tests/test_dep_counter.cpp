#include "paper/dep_counter.hpp"

#include <gtest/gtest.h>

#include <array>
#include <thread>
#include <vector>

namespace c64fft::codelet {
namespace {

TEST(DependencyCounters, RejectsBadArgs) {
  const std::array<std::uint64_t, 2> groups{4, 4};
  const std::array<std::uint32_t, 1> thresholds{2};
  EXPECT_THROW(DependencyCounters(groups, thresholds), std::invalid_argument);
  const std::array<std::uint32_t, 2> zero{2, 0};
  EXPECT_THROW(DependencyCounters(groups, zero), std::invalid_argument);
}

TEST(DependencyCounters, ArriveFiresExactlyOnce) {
  const std::array<std::uint64_t, 1> groups{1};
  DependencyCounters c(groups, 3u);
  EXPECT_FALSE(c.arrive(0, 0));
  EXPECT_FALSE(c.arrive(0, 0));
  EXPECT_TRUE(c.arrive(0, 0));
  EXPECT_THROW(c.arrive(0, 0), std::logic_error);
}

TEST(DependencyCounters, PerStageThresholds) {
  const std::array<std::uint64_t, 3> groups{0, 2, 1};
  const std::array<std::uint32_t, 3> thresholds{1, 2, 3};
  DependencyCounters c(groups, thresholds);
  EXPECT_EQ(c.threshold(1), 2u);
  EXPECT_EQ(c.threshold(2), 3u);
  EXPECT_FALSE(c.arrive(1, 0));
  EXPECT_TRUE(c.arrive(1, 0));
  EXPECT_FALSE(c.arrive(2, 0));
  EXPECT_FALSE(c.arrive(2, 0));
  EXPECT_TRUE(c.arrive(2, 0));
}

TEST(DependencyCounters, IndependentGroups) {
  const std::array<std::uint64_t, 1> groups{3};
  DependencyCounters c(groups, 2u);
  EXPECT_FALSE(c.arrive(0, 0));
  EXPECT_FALSE(c.arrive(0, 1));
  EXPECT_TRUE(c.arrive(0, 1));
  EXPECT_EQ(c.value(0, 0), 1u);
  EXPECT_EQ(c.value(0, 2), 0u);
}

TEST(DependencyCounters, OutOfRangeThrows) {
  const std::array<std::uint64_t, 2> groups{2, 0};
  DependencyCounters c(groups, 1u);
  EXPECT_THROW(c.arrive(2, 0), std::out_of_range);
  EXPECT_THROW(c.arrive(0, 2), std::out_of_range);
  EXPECT_THROW(c.arrive(1, 0), std::out_of_range);
}

TEST(DependencyCounters, ResetZeroesEverything) {
  const std::array<std::uint64_t, 1> groups{2};
  DependencyCounters c(groups, 2u);
  c.arrive(0, 0);
  c.reset();
  EXPECT_EQ(c.value(0, 0), 0u);
  EXPECT_FALSE(c.arrive(0, 0));
  EXPECT_TRUE(c.arrive(0, 0));
}

TEST(DependencyCounters, ConcurrentArrivalsFireExactlyOnce) {
  // 64 producers per group (the paper's threshold), 4 threads arriving
  // concurrently: exactly one arrival must report readiness per group.
  const std::array<std::uint64_t, 1> groups{8};
  DependencyCounters c(groups, 64u);
  std::atomic<int> fired[8] = {};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint64_t g = 0; g < 8; ++g)
        for (int k = 0; k < 16; ++k)  // 4 threads * 16 = 64 arrivals
          if (c.arrive(0, g)) fired[g].fetch_add(1);
      (void)t;
    });
  }
  for (auto& th : threads) th.join();
  for (int g = 0; g < 8; ++g) EXPECT_EQ(fired[g].load(), 1) << g;
}

}  // namespace
}  // namespace c64fft::codelet
