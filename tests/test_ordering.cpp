#include "paper/ordering.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace c64fft::fft {
namespace {

bool is_permutation_of_iota(const std::vector<std::uint64_t>& v) {
  std::set<std::uint64_t> s(v.begin(), v.end());
  if (s.size() != v.size()) return false;
  return v.empty() || (*s.begin() == 0 && *s.rbegin() == v.size() - 1);
}

TEST(Ordering, NaturalIsIota) {
  const auto v = make_seed_order(SeedOrder::kNatural, 8, 1);
  for (std::uint64_t i = 0; i < 8; ++i) EXPECT_EQ(v[i], i);
}

TEST(Ordering, ReverseIsDescending) {
  const auto v = make_seed_order(SeedOrder::kReverse, 8, 1);
  for (std::uint64_t i = 0; i < 8; ++i) EXPECT_EQ(v[i], 7 - i);
}

TEST(Ordering, StridedIsBitReversedOrder) {
  const auto v = make_seed_order(SeedOrder::kStrided, 8, 1);
  const std::uint64_t expect[] = {0, 4, 2, 6, 1, 5, 3, 7};
  for (int i = 0; i < 8; ++i) EXPECT_EQ(v[i], expect[i]);
}

TEST(Ordering, StridedRejectsNonPow2) {
  EXPECT_THROW(make_seed_order(SeedOrder::kStrided, 12, 1), std::invalid_argument);
}

TEST(Ordering, AllOrdersArePermutations) {
  for (auto o : {SeedOrder::kNatural, SeedOrder::kReverse, SeedOrder::kStrided,
                 SeedOrder::kRandom})
    EXPECT_TRUE(is_permutation_of_iota(make_seed_order(o, 256, 5))) << to_string(o);
}

TEST(Ordering, RandomIsSeedDeterministic) {
  const auto a = make_seed_order(SeedOrder::kRandom, 128, 42);
  const auto b = make_seed_order(SeedOrder::kRandom, 128, 42);
  const auto c = make_seed_order(SeedOrder::kRandom, 128, 43);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
}

TEST(Ordering, SweepCoversBestAndWorstShapes) {
  const auto sweep = ordering_sweep();
  EXPECT_GE(sweep.size(), 4u);
  auto has = [&](codelet::PoolPolicy p, SeedOrder o) {
    return std::any_of(sweep.begin(), sweep.end(), [&](const FineOrdering& f) {
      return f.policy == p && f.order == o;
    });
  };
  EXPECT_TRUE(has(codelet::PoolPolicy::kLifo, SeedOrder::kNatural));  // best-like
  EXPECT_TRUE(has(codelet::PoolPolicy::kFifo, SeedOrder::kStrided));  // worst-like
}

TEST(Ordering, ToStringRoundTrips) {
  EXPECT_EQ(to_string(SeedOrder::kNatural), "natural");
  EXPECT_EQ(to_string(FineOrdering{codelet::PoolPolicy::kFifo, SeedOrder::kStrided, 1}),
            "fifo/strided");
}

TEST(Ordering, EmptyAndSingle) {
  EXPECT_TRUE(make_seed_order(SeedOrder::kRandom, 0, 1).empty());
  const auto one = make_seed_order(SeedOrder::kStrided, 1, 1);
  ASSERT_EQ(one.size(), 1u);
  EXPECT_EQ(one[0], 0u);
}

}  // namespace
}  // namespace c64fft::fft
