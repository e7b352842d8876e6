#pragma once
// Production plan vocabulary: the route kinds the executor dispatches, the
// routing rule and the size limits of every route, the hierarchical split
// of the large-N route, the shape validator and the per-call options of
// every production transform. The paper's radix-2^r stage/task
// decomposition (FftPlan) is harness code: paper/fft_plan.hpp.

#include <cstdint>

namespace c64fft::fft {

/// How a transform of a given size is executed:
///  * kClassic — one whole-transform split-complex sweep per
///    cache-resident pow2 transform (run_transform_split, kernel.hpp).
///  * kHierarchical — Bailey's four-step decomposition for large N, one
///    level: the data is viewed as an n1 x n2 matrix split as evenly as
///    N allows, so both sub-FFTs are classic cache-resident transforms
///    (at most 2^16 points for every N up to 2^32). The inter-step
///    twiddles are fused into the tile transposes (transpose.hpp), and
///    the executor runs the level as two flat team phases: column blocks
///    (gather + column sweeps), then fused row blocks. The executor
///    routes pow2 N at/above kHierarchicalThresholdLog2 through this kind.
///  * kMixedRadix — 7-smooth composites (mixed_radix.hpp).
///  * kBluestein — every other N, through a pow2 convolution.
enum class PlanKind {
  kClassic,
  kHierarchical,
  kMixedRadix,
  kBluestein
};

/// Pow2 transforms with log2(N) >= this route through the hierarchical
/// path (PlanKind::kHierarchical); smaller ones run the classic
/// monolithic plan. 2^18 = 4 MiB of cplx data: at that size the classic
/// path's data + O(N) twiddle planes are far beyond a typical L2, while
/// the decomposed sub-sweeps (512-point FFTs) stay cache-resident.
/// Measured on a 4-vCPU Xeon, a 2-worker team runs the hierarchical route
/// 1.14x faster than the classic plan at 2^18, and a one-worker team runs
/// the two about equally there — DESIGN.md §3.7. (The f32 footprint at a
/// given N is half this; the threshold stays size-based for
/// predictability.)
inline constexpr unsigned kHierarchicalThresholdLog2 = 18;

/// log2 of the largest pow2 sweep (a classic entry, a hierarchical
/// factor, Bluestein's chirp-filter FFT): the AVX2 gather doubles its
/// bit-reversal indices into i32 component indices, so they stay < 2^30.
inline constexpr unsigned kMaxSweepLog2 = 30;

/// The largest Bluestein N: M = next_pow2(2N - 1) is one sweep.
inline constexpr std::uint64_t kMaxBluesteinSize = std::uint64_t{1}
                                                   << (kMaxSweepLog2 - 1);

/// The PlanKind the executor routes an n-point transform to — a function
/// of n alone. Non-pow2 sizes are decided by factorization: 7-smooth
/// composites run kMixedRadix, everything else kBluestein. Pow2 sizes
/// with log2(N) >= kHierarchicalThresholdLog2 run kHierarchical, the rest
/// kClassic; Bluestein's M-point convolution routes the same way. Shared
/// with PlanCache (a Bluestein entry's convolution key), fft_lint
/// --plan-kind=auto and the static models.
PlanKind routed_plan_kind(std::uint64_t n) noexcept;

/// True when a transform of route `kind` runs the tile pipeline's own
/// team phases, after a call's serial phase, instead of inside it: the
/// hierarchical route, or Bluestein over a hierarchical convolution
/// (`conv` is a Bluestein route's convolution kind; the other kinds
/// ignore it). The executor asks it of its plan entries, the server of a
/// request's N (the overload below), so a round's serial groups can
/// complete before its pipelined ones run.
bool tile_pipelined(PlanKind kind, PlanKind conv) noexcept;
/// tile_pipelined of the route routing picks for an n-point transform,
/// Bluestein's convolution included. Never throws or allocates.
bool tile_pipelined(std::uint64_t n) noexcept;

/// The hierarchical decomposition: N = n1 * n2 viewed as an n1 x n2
/// matrix, where n1 is the column sub-FFT and n2 the row sub-FFT, both
/// classic.
struct HierarchicalSplit {
  std::uint64_t n1 = 0;
  std::uint64_t n2 = 0;
};

/// The balanced four-step split of the hierarchical path:
/// n1 = 2^floor(log2(N)/2) <= n2 = N/n1, so both sub-transforms are as
/// small (and as cache-resident) as N allows. A function of N alone. N
/// must be a power of two in [4, 2^(2 * kMaxSweepLog2)], so n2 is a sweep
/// (std::invalid_argument otherwise).
HierarchicalSplit hierarchical_split(std::uint64_t n);

/// True when a route runs an n-point transform: N >= 2 and at most its
/// route's largest N — 2^60 pow2 (the split's larger factor is a sweep),
/// the largest 7-smooth N below 2^32 (MixedRadixPlan's u32 permutation),
/// kMaxBluesteinSize otherwise. Never throws or allocates, so the server
/// admits through it.
bool fft_size_supported(std::uint64_t n) noexcept;

/// Shape validator of the production transforms (every FftExecutor call,
/// and through it fft::forward/inverse, fft2d, real_fft and the server):
/// throws std::invalid_argument unless fft_size_supported(n). No radix
/// enters production: the paper's codelet radix is a parameter of the
/// harness (paper/fft_plan.hpp, paper/variants.hpp) only.
void validate_fft_shape(std::uint64_t n);

/// Per-call options of the production transforms (fft/api.hpp,
/// FftExecutor, fft2d, real_fft): the worker-team size. 0 (the default)
/// runs the executor's own team of ExecutorOptions::workers (4 on the
/// process-wide executor); a size in [1, codelet::Team::kMaxWorkers] runs
/// a team of that size, respawning the team when it has another; a larger
/// one throws std::invalid_argument. Output does not depend on the team
/// size. The paper's codelet radix and scheduling knobs live in
/// PaperFftOptions (paper/variants.hpp), which only fft_host accepts.
struct HostFftOptions {
  unsigned workers = 0;
};

}  // namespace c64fft::fft
