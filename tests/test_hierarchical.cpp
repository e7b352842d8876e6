// Hierarchical large-N path (PlanKind::kHierarchical), the only large-N
// route: the balanced split algebra, plan-cache pinning of the classic
// sub-entries, routing by N, the pipeline's exact phase, codelet and
// plan-cache miss counts (two flat phases per transform), bit-identity of
// the output across kernel ISA tiers and team
// sizes at N in {2^18, 2^19} (both precisions, both directions),
// numerical agreement with the classic path and the O(N^2) reference,
// and batch-vs-loop identity. Routes that routing never picks for a size
// (classic at 2^18, hierarchical below it) run through
// FftExecutorTestPeer. Registered under the `large_n` ctest label:
//     ctest -L large_n --output-on-failure

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "analysis/pipeline.hpp"
#include "executor_test_peer.hpp"
#include "fft/executor.hpp"
#include "fft/kernels/dispatch.hpp"
#include "fft/plan_cache.hpp"
#include "fft/transpose.hpp"
#include "paper/reference.hpp"
#include "util/cpu_features.hpp"
#include "util/prng.hpp"

namespace c64fft::fft {
namespace {

template <typename T>
std::vector<cplx_t<T>> random_signal(std::uint64_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<cplx_t<T>> v(n);
  for (auto& x : v)
    x = cplx_t<T>(static_cast<T>(rng.next_double() * 2 - 1),
                  static_cast<T>(rng.next_double() * 2 - 1));
  return v;
}

constexpr TwiddleDirection kFwd = TwiddleDirection::kForward;
constexpr TwiddleDirection kInv = TwiddleDirection::kInverse;

TEST(HierarchicalSplitAlgebra, BalancedAtEverySize) {
  // One level at every size: n1 = 2^floor(log2(n)/2) <= n2, product
  // preserved, so no factor exceeds 2^16 up to 2^32.
  for (unsigned logn = 2; logn <= 40; ++logn) {
    const HierarchicalSplit h = hierarchical_split(1ULL << logn);
    EXPECT_EQ(h.n1, 1ULL << (logn / 2)) << logn;
    EXPECT_EQ(h.n2, 1ULL << (logn - logn / 2)) << logn;
  }
  EXPECT_EQ(hierarchical_split(1ULL << 18).n2, 512u);
  EXPECT_EQ(hierarchical_split(1ULL << 13).n1, 64u);
  EXPECT_EQ(hierarchical_split(1ULL << 13).n2, 128u);
  EXPECT_THROW(hierarchical_split(2), std::invalid_argument);
  EXPECT_THROW(hierarchical_split(96), std::invalid_argument);
}

TEST(HierarchicalGrainPolicy, TileAlignedBlocksCoverAllRows) {
  const HierarchicalGrain g =
      hierarchical_grain(2048, 2048, 2, 16, 2ull << 20);
  EXPECT_EQ(g.block_rows1 % kTransposeTile, 0u);
  EXPECT_EQ(g.block_rows2 % kTransposeTile, 0u);
  EXPECT_GE(g.blocks1 * g.block_rows1, 2048u);
  EXPECT_GE(g.blocks2 * g.block_rows2, 2048u);
  // At least workers*4 blocks so the pipeline has overlap to exploit.
  EXPECT_GE(g.blocks1, 8u);
}

TEST(HierarchicalPlanCache, EntryPinsClassicSubEntries) {
  PlanCache cache(8);
  // A square split (2^12 = 64 x 64) shares one classic sub-entry, itself
  // an ordinary cache resident under the key a direct call builds.
  auto entry = cache.acquire(PlanKey{1ULL << 12, PlanKind::kHierarchical});
  ASSERT_EQ(entry->kind(), PlanKind::kHierarchical);
  EXPECT_EQ(entry->split().n1, 64u);
  EXPECT_EQ(entry->split().n2, 64u);
  EXPECT_EQ(entry->row_entry()->kind(), PlanKind::kClassic);
  EXPECT_EQ(entry->col_entry().get(), entry->row_entry().get());
  auto direct = cache.acquire(PlanKey{64});
  EXPECT_EQ(direct.get(), entry->row_entry().get());
  // Classic-only accessors stay fenced off on hierarchical entries, and
  // vice versa.
  EXPECT_THROW(entry->level_twiddles<double>(TwiddleDirection::kForward),
               std::logic_error);
  EXPECT_THROW(entry->row_entry()->split(), std::logic_error);
  // A rectangular split pins two distinct classic sub-entries, the
  // narrower one shared with a direct acquire.
  auto rect = cache.acquire(PlanKey{1ULL << 13, PlanKind::kHierarchical});
  EXPECT_EQ(rect->split().n1, 64u);
  EXPECT_EQ(rect->split().n2, 128u);
  EXPECT_EQ(rect->col_entry()->kind(), PlanKind::kClassic);
  EXPECT_NE(rect->col_entry().get(), rect->row_entry().get());
  EXPECT_EQ(direct.get(), rect->col_entry().get());
}

TEST(Hierarchical, Routing) {
  // Routing is a function of N: the classic plan up to 2^17, hierarchical
  // from 2^18; non-pow2 sizes route by factorization.
  EXPECT_EQ(routed_plan_kind(2), PlanKind::kClassic);
  EXPECT_EQ(routed_plan_kind(1ULL << 10), PlanKind::kClassic);
  EXPECT_EQ(routed_plan_kind(1ULL << 17), PlanKind::kClassic);
  EXPECT_EQ(routed_plan_kind(1ULL << 18), PlanKind::kHierarchical);
  EXPECT_EQ(routed_plan_kind(1ULL << 20), PlanKind::kHierarchical);
  EXPECT_EQ(routed_plan_kind(1000000), PlanKind::kMixedRadix);
  EXPECT_EQ(routed_plan_kind(65537), PlanKind::kBluestein);
  EXPECT_EQ(routed_plan_kind(bluestein_fft_size(65537)),
            PlanKind::kHierarchical);
}

TEST(Hierarchical, ExecutorRoutesOnlyLargeTransforms) {
  // The executor's counters agree with routed_plan_kind on both sides of
  // the threshold, whatever the team.
  FftExecutor ex({.workers = 2});
  auto below = random_signal<double>(1ULL << 17, 1);
  auto at = random_signal<double>(1ULL << 18, 2);
  ex.forward(below);
  EXPECT_EQ(ex.stats().hierarchical, 0u);
  ex.forward(at);
  EXPECT_EQ(ex.stats().hierarchical, 1u);
}

template <typename T>
void check_pipeline_counts() {
  // A hierarchical transform is exactly two phases on every team: `hier.A`
  // of B1 column-block codelets (T1 gather + T2 column sweep each), then
  // `hier.B` of B2 fused T4 row-block codelets, with B1/B2 the executor's
  // grain at this host's L2. Bluestein over a hierarchical convolution runs two such
  // pipelines: B1, B2, B1, B2. The static model (analysis/pipeline.hpp)
  // must show exactly those phases and tasks; Bluestein's modulate,
  // pointwise and demodulate passes run inline, outside any team phase.
  const std::uint64_t l2 = util::cache_info().l2_bytes;
  for (const unsigned workers : {1u, 2u, 4u}) {
    FftExecutor ex({.workers = workers});
    for (const std::uint64_t n : {1ULL << 18, 1ULL << 20, 65537ULL}) {
      const bool bluestein = routed_plan_kind(n) == PlanKind::kBluestein;
      const std::uint64_t m = bluestein ? bluestein_fft_size(n) : n;
      const HierarchicalSplit split = hierarchical_split(m);
      const HierarchicalGrain g = hierarchical_grain(
          split.n1, split.n2, workers, sizeof(cplx_t<T>), l2);
      const std::uint64_t pipelines = bluestein ? 2 : 1;
      analysis::PipelineBuildOptions mopts;
      mopts.workers = workers;
      mopts.element_bytes = sizeof(cplx_t<T>);
      mopts.l2_bytes = l2;
      std::vector<std::uint64_t> model_tasks;
      for (const analysis::PhaseModel& p :
           (bluestein ? analysis::build_bluestein_pipeline(n, mopts)
                      : analysis::build_hierarchical_pipeline(n, mopts))
               .phases)
        if (p.name != "modulate" && p.name != "pointwise" &&
            p.name != "demodulate")
          model_tasks.push_back(p.tasks.size());
      ASSERT_EQ(model_tasks.size(), 2 * pipelines) << "n=" << n;
      auto data = random_signal<T>(n, n + workers);
      const std::span<cplx_t<T>> span(data);
      ex.forward(span);  // warm: entries, inverse tables, scratch
      ex.inverse(span);
      for (const bool inverse : {false, true}) {
        std::vector<codelet::PhaseStats> phases;
        ex.set_phase_hook(
            [&](const codelet::PhaseStats& ps) { phases.push_back(ps); });
        if (inverse)
          ex.inverse(span);
        else
          ex.forward(span);
        ex.set_phase_hook({});
        const std::string label = "n=" + std::to_string(n) +
                                  " workers=" + std::to_string(workers) +
                                  (inverse ? " inverse" : " forward");
        ASSERT_EQ(phases.size(), 2 * pipelines) << label;
        for (std::size_t p = 0; p < phases.size(); ++p) {
          const std::uint64_t want = p % 2 == 0 ? g.blocks1 : g.blocks2;
          EXPECT_STREQ(phases[p].label, p % 2 == 0 ? "hier.A" : "hier.B")
              << label << " phase " << p;
          EXPECT_EQ(phases[p].seeds, want) << label << " phase " << p;
          EXPECT_EQ(phases[p].executed, want) << label << " phase " << p;
          EXPECT_EQ(model_tasks[p], want) << label << " model phase " << p;
        }
      }
    }
  }
}

TEST(Hierarchical, TwoPhasesOfExactCodeletsPerTransformF64) {
  check_pipeline_counts<double>();
}

TEST(Hierarchical, TwoPhasesOfExactCodeletsPerTransformF32) {
  check_pipeline_counts<float>();
}

// Exact plan-cache and team counts of the pipelined routes on fresh 1- and
// 2-worker executors: a cold forward acquires the pipeline key and its
// classic sub-entries (one shared when the split is square), Bluestein
// its own key on top of its M = 2^18 pipeline's; warm forward + inverse
// repeats acquire nothing new, on the one team.
template <typename T>
void check_routes_miss_only_when_cold() {
  const std::pair<std::uint64_t, std::uint64_t> routes[] = {
      {1ULL << 18, 2}, {1ULL << 19, 3}, {1ULL << 20, 2}, {65537, 3}};
  for (const auto& [n, cold] : routes)
    for (const unsigned workers : {1u, 2u}) {
      const std::string label =
          "n=" + std::to_string(n) + " workers=" + std::to_string(workers);
      FftExecutor ex({.workers = workers});
      auto data = random_signal<T>(n, n);
      const std::span<cplx_t<T>> span(data);
      ex.forward(span);
      EXPECT_EQ(ex.stats().cache.misses, cold) << label;
      for (int round = 0; round < 2; ++round) {
        ex.forward(span);
        ex.inverse(span);
      }
      const ExecutorStats s = ex.stats();
      EXPECT_EQ(s.cache.misses, cold) << label;
      EXPECT_EQ(s.teams_created, 1u) << label;
    }
}

TEST(Hierarchical, RoutesMissOnlyWhenColdF64) {
  check_routes_miss_only_when_cold<double>();
}

TEST(Hierarchical, RoutesMissOnlyWhenColdF32) {
  check_routes_miss_only_when_cold<float>();
}

/// Restores the process-wide kernel ISA on scope exit.
struct IsaGuard {
  util::IsaLevel saved = kernels::active_kernel_isa();
  ~IsaGuard() { kernels::set_kernel_isa(saved); }
};

template <typename T>
void check_bit_identical_across_isas_and_teams(std::uint64_t seed) {
  // The only large-N route's bit-exact oracle: the scalar kernel table on
  // a one-worker team is the reference, and every (ISA tier, team size)
  // must reproduce it byte for byte, forward and inverse.
  IsaGuard guard;
  for (unsigned logn : {18u, 19u}) {
    const std::uint64_t n = 1ULL << logn;
    const auto input = random_signal<T>(n, seed + logn);
    const std::size_t bytes = n * sizeof(cplx_t<T>);
    kernels::set_kernel_isa(util::IsaLevel::kScalar);
    FftExecutor ref;
    HostFftOptions one;
    one.workers = 1;
    auto want_fwd = input;
    ref.forward(std::span<cplx_t<T>>(want_fwd), one);
    auto want_inv = want_fwd;
    ref.inverse(std::span<cplx_t<T>>(want_inv), one);

    for (const util::IsaLevel isa :
         {util::IsaLevel::kScalar, util::best_supported_isa()}) {
      ASSERT_EQ(kernels::set_kernel_isa(isa), isa);
      for (unsigned workers : {1u, 2u, 3u, 4u}) {
        FftExecutor hier;
        HostFftOptions opts;
        opts.workers = workers;
        auto got = input;
        hier.forward(std::span<cplx_t<T>>(got), opts);
        EXPECT_EQ(std::memcmp(got.data(), want_fwd.data(), bytes), 0)
            << "forward n=" << n << " isa=" << util::to_string(isa)
            << " workers=" << workers;
        hier.inverse(std::span<cplx_t<T>>(got), opts);
        EXPECT_EQ(std::memcmp(got.data(), want_inv.data(), bytes), 0)
            << "inverse n=" << n << " isa=" << util::to_string(isa)
            << " workers=" << workers;
        EXPECT_EQ(hier.stats().hierarchical, 2u);
      }
    }
  }
}

TEST(Hierarchical, BitIdenticalAcrossIsasAndTeamSizesF64) {
  check_bit_identical_across_isas_and_teams<double>(500);
}

TEST(Hierarchical, BitIdenticalAcrossIsasAndTeamSizesF32) {
  check_bit_identical_across_isas_and_teams<float>(600);
}

TEST(Hierarchical, MatchesClassicAndReference) {
  // Independent anchors: the classic monolithic plan (forward, inverse
  // and round trip) at 2^14..2^18 and the O(N^2) DFT at 2^12 (where that
  // is still affordable), both routes forced through the test peer.
  FftExecutor classic({.workers = 2});
  FftExecutor hier({.workers = 2});
  for (unsigned logn : {14u, 16u, 18u}) {
    const std::uint64_t n = 1ULL << logn;
    const auto input = random_signal<double>(n, 7 + logn);
    auto want = input;
    FftExecutorTestPeer::run<double>(classic, want, kClassicRoute, kFwd);
    auto got = input;
    FftExecutorTestPeer::run<double>(hier, got, kHierarchicalRoute, kFwd);
    // Output magnitudes grow like sqrt(N); compare relative to that scale.
    EXPECT_LT(rel_l2_error(got, want), 1e-12) << "n=" << n;
    EXPECT_LT(max_abs_error(got, want), 1e-8) << "n=" << n;

    // Inverse parity: both paths invert the same spectrum, and the round
    // trip on the hierarchical path alone recovers the input.
    auto want_inv = want;
    FftExecutorTestPeer::run<double>(classic, want_inv, kClassicRoute, kInv);
    FftExecutorTestPeer::run<double>(hier, got, kHierarchicalRoute, kInv);
    EXPECT_LT(max_abs_error(got, want_inv), 1e-10) << "n=" << n;
    EXPECT_LT(max_abs_error(got, input), 1e-10) << "n=" << n;
  }
  EXPECT_EQ(classic.stats().hierarchical, 0u);
  EXPECT_EQ(hier.stats().hierarchical, 6u);

  const auto small = random_signal<double>(1ULL << 12, 8);
  auto hgot = small;
  FftExecutorTestPeer::run<double>(hier, hgot, kHierarchicalRoute, kFwd);
  EXPECT_LT(rel_l2_error(hgot, dft_reference(small)), 1e-12);
}

TEST(Hierarchical, RoundTripRecoversInput) {
  const std::uint64_t n = 1ULL << 20;
  const auto input = random_signal<double>(n, 11);
  FftExecutor hier({.workers = 2});
  auto rt = input;
  hier.forward(rt);
  hier.inverse(rt);
  EXPECT_LT(max_abs_error(rt, input), 1e-9);
}

TEST(Hierarchical, BatchMatchesLoopBitIdentically) {
  // forward_batch/inverse_batch thread through the same locked body one
  // transform at a time — identical dispatch, so identical bits.
  const std::uint64_t n = 1ULL << 20;
  const std::size_t b = 3;
  std::vector<std::vector<cplx>> singles, batch;
  for (std::size_t i = 0; i < b; ++i) {
    singles.push_back(random_signal<double>(n, 300 + i));
    batch.push_back(singles.back());
  }
  FftExecutor hier({.workers = 2});
  for (auto& t : singles) hier.forward(t);
  std::vector<std::span<cplx>> spans;
  for (auto& t : batch) spans.emplace_back(t);
  hier.forward_batch(spans);
  EXPECT_EQ(hier.stats().hierarchical, b + 3);  // 3 singles + 3 batched
  for (std::size_t i = 0; i < b; ++i) EXPECT_EQ(batch[i], singles[i]) << i;

  for (auto& t : singles) hier.inverse(t);
  hier.inverse_batch(spans);
  for (std::size_t i = 0; i < b; ++i) EXPECT_EQ(batch[i], singles[i]) << i;
}

}  // namespace
}  // namespace c64fft::fft
