#include "paper/fft_plan.hpp"

#include <gtest/gtest.h>

#include <set>
#include <utility>
#include <vector>

#include "util/bit_ops.hpp"

namespace c64fft::fft {
namespace {

TEST(FftPlan, RejectsBadArgs) {
  EXPECT_THROW(FftPlan(100, 6), std::invalid_argument);
  EXPECT_THROW(FftPlan(32, 6), std::invalid_argument);  // N < radix
  EXPECT_THROW(FftPlan(64, 0), std::invalid_argument);
  EXPECT_THROW(FftPlan(64, 9), std::invalid_argument);
}

TEST(FftPlan, StageCountMatchesPaper) {
  // ceil(log2 N / 6) stages (Alg. 1).
  EXPECT_EQ(FftPlan(1ULL << 15, 6).stage_count(), 3u);
  EXPECT_EQ(FftPlan(1ULL << 18, 6).stage_count(), 3u);
  EXPECT_EQ(FftPlan(1ULL << 19, 6).stage_count(), 4u);
  EXPECT_EQ(FftPlan(1ULL << 22, 6).stage_count(), 4u);
  EXPECT_EQ(FftPlan(1ULL << 24, 6).stage_count(), 4u);
}

TEST(FftPlan, TasksPerStage) {
  const FftPlan p(1ULL << 15, 6);
  EXPECT_EQ(p.tasks_per_stage(), 512u);
  EXPECT_EQ(p.total_tasks(), 512u * 3u);
}

TEST(FftPlan, FullStageShape) {
  const FftPlan p(1ULL << 18, 6);
  for (std::uint32_t s = 0; s < 3; ++s) {
    const StageInfo& st = p.stage(s);
    EXPECT_FALSE(st.partial);
    EXPECT_EQ(st.levels, 6u);
    EXPECT_EQ(st.chains_per_task, 1u);
    EXPECT_EQ(st.chain_len, 64u);
    EXPECT_EQ(st.chain_stride, util::ipow(64, s));
  }
}

TEST(FftPlan, PartialLastStageShape) {
  const FftPlan p(1ULL << 15, 6);  // 15 = 6 + 6 + 3
  const StageInfo& st = p.stage(2);
  EXPECT_TRUE(st.partial);
  EXPECT_EQ(st.levels, 3u);
  EXPECT_EQ(st.chain_len, 8u);
  EXPECT_EQ(st.chains_per_task, 8u);
  EXPECT_EQ(st.chain_stride, 4096u);
}

TEST(FftPlan, ElementIndexMatchesPaperFormulaFullStages) {
  // data_k = D[64^{j+1} * floor(i/64^j) + i mod 64^j + k*64^j]
  const FftPlan p(1ULL << 18, 6);
  for (std::uint32_t j = 0; j < 3; ++j) {
    const std::uint64_t rj = util::ipow(64, j);
    const std::uint64_t rj1 = util::ipow(64, j + 1);
    for (std::uint64_t i : {std::uint64_t{0}, std::uint64_t{7}, std::uint64_t{80},
                            p.tasks_per_stage() - 1}) {
      for (std::uint64_t k : {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{63}}) {
        EXPECT_EQ(p.element_index(j, i, k), rj1 * (i / rj) + i % rj + k * rj)
            << j << " " << i << " " << k;
      }
    }
  }
}

TEST(FftPlan, ElementsStayInRangeEverywhere) {
  for (const std::uint64_t n : {1ULL << 12, 1ULL << 15, 1ULL << 16}) {
    const FftPlan p(n, 6);
    for (std::uint32_t s = 0; s < p.stage_count(); ++s)
      for (std::uint64_t i = 0; i < p.tasks_per_stage(); ++i)
        for (std::uint64_t k = 0; k < p.radix(); ++k)
          ASSERT_LT(p.element_index(s, i, k), n) << s << " " << i << " " << k;
  }
}

TEST(FftPlan, EveryStagePartitionsTheArray) {
  // Each stage's tasks touch every element exactly once.
  for (const std::uint64_t n : {1ULL << 12, 1ULL << 15}) {
    const FftPlan p(n, 6);
    for (std::uint32_t s = 0; s < p.stage_count(); ++s) {
      std::vector<int> hits(n, 0);
      for (std::uint64_t i = 0; i < p.tasks_per_stage(); ++i)
        for (std::uint64_t k = 0; k < p.radix(); ++k) ++hits[p.element_index(s, i, k)];
      for (std::uint64_t e = 0; e < n; ++e) ASSERT_EQ(hits[e], 1) << s << " " << e;
    }
  }
}

TEST(FftPlan, TwiddleIndexMatchesPaperFormulaFullStage) {
  // W[((i mod 64^j) + (k mod 2^v) * 64^j) * 2^{n-L-1}]
  const FftPlan p(1ULL << 18, 6);
  for (std::uint32_t j : {0u, 1u, 2u}) {
    const std::uint64_t rj = util::ipow(64, j);
    for (std::uint64_t i : {std::uint64_t{3}, std::uint64_t{100}}) {
      for (std::uint32_t v = 0; v < 6; ++v) {
        for (std::uint64_t k = 0; k < (std::uint64_t{1} << v); ++k) {
          const std::uint64_t expected =
              ((i % rj) + (k % (std::uint64_t{1} << v)) * rj)
              << (18 - (6 * j + v) - 1);
          EXPECT_EQ(p.twiddle_index(j, i, v, k), expected) << j << " " << i;
        }
      }
    }
  }
}

TEST(FftPlan, TwiddleIndicesInRange) {
  for (const std::uint64_t n : {1ULL << 12, 1ULL << 15}) {
    const FftPlan p(n, 6);
    for (std::uint32_t s = 0; s < p.stage_count(); ++s) {
      const StageInfo& st = p.stage(s);
      for (std::uint64_t i = 0; i < p.tasks_per_stage(); i += 13) {
        for (std::uint32_t v = 0; v < st.levels; ++v)
          for (std::uint64_t c = 0; c < st.chains_per_task; ++c)
            for (std::uint64_t q = 0; q < (std::uint64_t{1} << v); ++q)
              ASSERT_LT(p.twiddle_index(s, i, v, c * st.chain_len + q), n / 2);
      }
    }
  }
}

TEST(FftPlan, EarlyStageTwiddlesAreMultiplesOfFour) {
  // The paper's observation behind Fig. 1: for all levels L <= n-5 the
  // twiddle index is a multiple of 4 elements, pinning accesses to the
  // base bank under 64 B interleave.
  const FftPlan p(1ULL << 18, 6);
  for (std::uint32_t j : {0u, 1u}) {
    const StageInfo& st = p.stage(j);
    for (std::uint64_t i = 0; i < p.tasks_per_stage(); i += 29)
      for (std::uint32_t v = 0; v < st.levels; ++v)
        for (std::uint64_t q = 0; q < (std::uint64_t{1} << v); ++q)
          ASSERT_EQ(p.twiddle_index(j, i, v, q) % 4, 0u);
  }
}

TEST(FftPlan, LastStageTwiddlesHitAllResidues) {
  const FftPlan p(1ULL << 18, 6);
  std::set<std::uint64_t> residues;
  const StageInfo& st = p.stage(2);
  for (std::uint64_t i = 0; i < p.tasks_per_stage(); ++i)
    for (std::uint32_t v = 0; v < st.levels; ++v)
      for (std::uint64_t q = 0; q < (std::uint64_t{1} << v); ++q)
        residues.insert(p.twiddle_index(2, i, v, q) % 4);
  EXPECT_EQ(residues.size(), 4u);
}

TEST(FftPlan, TwiddlesPerTask) {
  const FftPlan full(1ULL << 18, 6);
  for (std::uint32_t s = 0; s < 3; ++s) EXPECT_EQ(full.twiddles_per_task(s), 63u);
  const FftPlan part(1ULL << 15, 6);
  EXPECT_EQ(part.twiddles_per_task(0), 63u);
  EXPECT_EQ(part.twiddles_per_task(2), 8u * 7u);  // cpt * (2^w - 1)
}

TEST(FftPlan, FlopsPerTask) {
  const FftPlan p(1ULL << 15, 6);
  EXPECT_EQ(p.flops_per_task(0), 5u * 64u * 6u);  // 1920, Section V-A
  EXPECT_EQ(p.flops_per_task(2), 5u * 64u * 3u);  // partial: 3 levels
  // Total flops over all tasks = 5 N log2 N.
  std::uint64_t total = 0;
  for (std::uint32_t s = 0; s < p.stage_count(); ++s)
    total += p.flops_per_task(s) * p.tasks_per_stage();
  EXPECT_EQ(total, 5ULL * (1ULL << 15) * 15ULL);
}

TEST(FftPlan, PaperChildExample) {
  // Section IV-A2: the 80th codelet of stage 3 has parents 80 + 4096*m in
  // stage 2, and 4176 shares them.
  const FftPlan p(1ULL << 24, 6);
  std::vector<std::uint64_t> parents;
  p.parents_of(3, 80, parents);
  ASSERT_EQ(parents.size(), 64u);
  for (std::uint64_t m = 0; m < 64; ++m) EXPECT_EQ(parents[m], 80 + 4096 * m);
  std::vector<std::uint64_t> parents2;
  p.parents_of(3, 4176, parents2);
  EXPECT_EQ(parents, parents2);
  EXPECT_EQ(p.group_of(3, 80), p.group_of(3, 4176));
}

TEST(FftPlan, SmallRadixPlans) {
  // Radix 2 (task = one butterfly pair... 2-point codelet) still works.
  const FftPlan p(16, 1);
  EXPECT_EQ(p.stage_count(), 4u);
  EXPECT_EQ(p.tasks_per_stage(), 8u);
  EXPECT_EQ(p.twiddles_per_task(0), 1u);
  const FftPlan q(64, 3);
  EXPECT_EQ(q.stage_count(), 2u);
  EXPECT_EQ(q.tasks_per_stage(), 8u);
}

TEST(FftPlan, TaskElementsMatchesElementIndex) {
  const std::vector<std::pair<std::uint64_t, unsigned>> cases = {
      {4096, 6}, {1024, 6} /* partial last stage */, {512, 3}};
  for (const auto& [n, r] : cases) {
    const FftPlan p(n, r);
    std::vector<std::uint64_t> elems;
    for (std::uint32_t s = 0; s < p.stage_count(); ++s) {
      p.task_elements(s, p.tasks_per_stage() - 1, elems);
      ASSERT_EQ(elems.size(), p.radix());
      for (std::uint64_t k = 0; k < p.radix(); ++k)
        EXPECT_EQ(elems[k], p.element_index(s, p.tasks_per_stage() - 1, k));
    }
  }
}

TEST(FftPlan, TaskTwiddlesCountAndRange) {
  const std::vector<std::pair<std::uint64_t, unsigned>> cases = {{4096, 6}, {1024, 6}};
  for (const auto& [n, r] : cases) {
    const FftPlan p(n, r);
    std::vector<std::uint64_t> tw;
    for (std::uint32_t s = 0; s < p.stage_count(); ++s) {
      p.task_twiddles(s, 0, tw);
      EXPECT_EQ(tw.size(), p.twiddles_per_task(s));
      for (std::uint64_t t : tw) EXPECT_LT(t, n / 2);
    }
  }
}

TEST(FftPlan, SingleStagePlan) {
  const FftPlan p(64, 6);
  EXPECT_EQ(p.stage_count(), 1u);
  EXPECT_EQ(p.tasks_per_stage(), 1u);
  EXPECT_EQ(p.element_index(0, 0, 17), 17u);
}

}  // namespace
}  // namespace c64fft::fft
