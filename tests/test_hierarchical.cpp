// Hierarchical multi-level large-N path (PlanKind::kHierarchical), the
// only large-N route: split algebra and cache-driven leaf selection,
// plan-cache pinning of the recursive sub-plan chain, routing by N,
// bit-identity of the output across kernel ISA tiers and team sizes at
// N in {2^18, 2^19} (both precisions, both directions), numerical
// agreement with the classic path and the O(N^2) reference,
// batch-vs-loop identity and forced multi-level recursion. Routes that
// routing never picks for a size (classic at 2^18, hierarchical below it,
// a forced leaf) run through FftExecutorTestPeer. Registered under the
// `large_n` ctest label:
//     ctest -L large_n --output-on-failure

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "executor_test_peer.hpp"
#include "fft/executor.hpp"
#include "fft/kernels/dispatch.hpp"
#include "fft/plan_cache.hpp"
#include "fft/reference.hpp"
#include "fft/transpose.hpp"
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

TEST(HierarchicalSplitAlgebra, BalancedBelowTwiceLeaf) {
  // While log2(n) <= 2*leaf the split is balanced: one level, classic
  // children, n1 = 2^floor(log2(n)/2) <= n2 with the product preserved.
  for (unsigned logn : {2u, 13u, 14u, 16u, 18u, 19u, 22u, 28u}) {
    const HierarchicalSplit h = hierarchical_split(1ULL << logn, 14);
    EXPECT_EQ(h.n1, 1ULL << (logn / 2)) << logn;
    EXPECT_EQ(h.n2, 1ULL << (logn - logn / 2)) << logn;
    EXPECT_EQ(h.levels, 1u) << logn;
    EXPECT_FALSE(h.col_recursive) << logn;
  }
  EXPECT_EQ(hierarchical_split(1ULL << 18, 14).n2, 512u);
  EXPECT_EQ(hierarchical_split(1ULL << 13, 14).n1, 64u);
  EXPECT_EQ(hierarchical_split(1ULL << 13, 14).n2, 128u);
}

TEST(HierarchicalSplitAlgebra, RecursiveAboveTwiceLeaf) {
  // log2(n) > 2*leaf peels a 2^leaf row factor and recurses on the rest.
  const HierarchicalSplit h = hierarchical_split(1ULL << 12, 4);
  EXPECT_EQ(h.n2, 16u);
  EXPECT_EQ(h.n1, 256u);
  EXPECT_TRUE(h.col_recursive);
  EXPECT_EQ(h.levels, 2u);
  // Three levels: 2^18 with leaf 5 -> 32 * (32 * 2^8).
  const HierarchicalSplit deep = hierarchical_split(1ULL << 18, 5);
  EXPECT_EQ(deep.n2, 32u);
  EXPECT_EQ(deep.levels, 3u);
  EXPECT_THROW(hierarchical_split(2, 14), std::invalid_argument);
  EXPECT_THROW(hierarchical_split(96, 14), std::invalid_argument);
}

TEST(HierarchicalSplitAlgebra, LeafTracksCacheSize) {
  // leaf = log2(points that fit in cache at 8 bytes-per-point headroom).
  EXPECT_EQ(hierarchical_leaf_log2(2ull << 20, 16), 14u);  // 2 MiB L2, f64
  EXPECT_EQ(hierarchical_leaf_log2(2ull << 20, 8), 15u);   // f32
  EXPECT_EQ(hierarchical_leaf_log2(1ull << 10, 16), 4u);   // clamped low
  EXPECT_EQ(hierarchical_leaf_log2(1ull << 40, 16), 16u);  // clamped high
  // The measured hierarchy feeds the default: whatever this host reports,
  // the derived leaf stays inside the clamp range.
  const unsigned leaf = hierarchical_leaf_log2(util::cache_info().l2_bytes, 16);
  EXPECT_GE(leaf, 4u);
  EXPECT_LE(leaf, 16u);
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

TEST(HierarchicalPlanCache, EntryPinsSubEntriesRecursively) {
  PlanCache cache(8);
  // Forced leaf 4 at 2^12: 16 x 256 with a recursive 256-point column.
  const PlanKey key{1ULL << 12, PlanKind::kHierarchical, Precision::kF64, 4};
  auto entry = cache.acquire(key);
  ASSERT_EQ(entry->kind(), PlanKind::kHierarchical);
  EXPECT_EQ(entry->levels(), 2u);
  EXPECT_EQ(entry->split().n1, 256u);
  EXPECT_EQ(entry->split().n2, 16u);
  EXPECT_EQ(entry->row_entry()->kind(), PlanKind::kClassic);
  ASSERT_EQ(entry->col_entry()->kind(), PlanKind::kHierarchical);
  EXPECT_EQ(entry->col_entry()->levels(), 1u);
  EXPECT_EQ(entry->col_entry()->split().n1, 16u);
  EXPECT_EQ(entry->col_entry()->split().n2, 16u);
  // The inner level's square split shares one classic sub-entry, itself an
  // ordinary cache resident.
  EXPECT_EQ(entry->col_entry()->col_entry().get(),
            entry->col_entry()->row_entry().get());
  // Sub-keys are the keys a direct call of the sub-size builds.
  auto direct = cache.acquire(PlanKey{16});
  EXPECT_EQ(direct.get(), entry->col_entry()->row_entry().get());
  // Classic-only accessors stay fenced off on hierarchical entries, and
  // vice versa.
  EXPECT_THROW(entry->twiddles(TwiddleDirection::kForward), std::logic_error);
  EXPECT_THROW(entry->row_entry()->split(), std::logic_error);
  // Distinct leaves build distinct plan trees (the leaf is in the key).
  auto other = cache.acquire(
      PlanKey{1ULL << 12, PlanKind::kHierarchical, Precision::kF64, 6});
  EXPECT_NE(other.get(), entry.get());
  EXPECT_EQ(other->levels(), 1u);
  // A rectangular single-level split pins two distinct classic
  // sub-entries, the narrower one shared with a direct acquire.
  auto rect = cache.acquire(
      PlanKey{1ULL << 13, PlanKind::kHierarchical, Precision::kF64, 14});
  EXPECT_EQ(rect->split().n1, 64u);
  EXPECT_EQ(rect->split().n2, 128u);
  EXPECT_EQ(rect->col_entry()->kind(), PlanKind::kClassic);
  EXPECT_NE(rect->col_entry().get(), rect->row_entry().get());
  auto col = cache.acquire(PlanKey{64});
  EXPECT_EQ(col.get(), rect->col_entry().get());
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

TEST(Hierarchical, ForcedMultiLevelRecursionIsCorrect) {
  // A leaf far below the cache-derived default forces real recursion (3
  // levels at 2^18 with leaf 5), which production reaches only above
  // 2^(2*leaf). The split differs from the default single-level one, so
  // the anchor is numerical agreement with the classic path, not
  // bit-identity.
  const std::uint64_t n = 1ULL << 18;
  PlanCache cache(4);
  ASSERT_EQ(cache.acquire(PlanKey{n, PlanKind::kHierarchical, Precision::kF64,
                                  5})
                ->levels(),
            3u);
  const auto input = random_signal<double>(n, 13);
  FftExecutor ex({.workers = 2});
  auto want = input;
  FftExecutorTestPeer::run<double>(ex, want, kClassicRoute, kFwd);

  const FftExecutorTestPeer::Route leaf5{PlanKind::kHierarchical,
                                         PlanKind::kClassic, 5};
  auto got = input;
  FftExecutorTestPeer::run<double>(ex, got, leaf5, kFwd);
  EXPECT_LT(rel_l2_error(got, want), 1e-12);

  auto rt = got;
  FftExecutorTestPeer::run<double>(ex, rt, leaf5, kInv);
  EXPECT_LT(max_abs_error(rt, input), 1e-10);

  // f32 recursion through the same tree.
  const auto input32 = random_signal<float>(n, 14);
  auto got32 = input32;
  FftExecutorTestPeer::run<float>(ex, got32, leaf5, kFwd);
  auto want32 = input32;
  FftExecutorTestPeer::run<float>(ex, want32, kClassicRoute, kFwd);
  EXPECT_LT(rel_l2_error(got32, want32), 1e-4);
}

}  // namespace
}  // namespace c64fft::fft
