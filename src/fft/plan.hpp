#pragma once
// Production plan vocabulary: the route kinds the executor dispatches, the
// hierarchical split of the large-N route, the shape validator and the
// per-call options of every production transform. The paper's radix-2^r
// stage/task decomposition (FftPlan) is harness code: paper/fft_plan.hpp.

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
///    routes pow2 N at/above its threshold through this kind.
///  * kMixedRadix — 7-smooth composites (mixed_radix.hpp).
///  * kBluestein — every other N, through a pow2 convolution.
enum class PlanKind {
  kClassic,
  kHierarchical,
  kMixedRadix,
  kBluestein
};

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
/// must be a power of two >= 4 (std::invalid_argument otherwise).
HierarchicalSplit hierarchical_split(std::uint64_t n);

/// Shape validator of the production transforms (every FftExecutor call,
/// and through it fft::forward/inverse, fft2d, real_fft and the server):
/// any N >= 2 is accepted — pow2 sizes run the classic/hierarchical
/// plans, 7-smooth composites the mixed-radix plan, and everything else
/// Bluestein. Throws std::invalid_argument for N < 2. No radix enters
/// production: the paper's codelet radix is a parameter of the harness
/// (paper/fft_plan.hpp, paper/variants.hpp) only.
void validate_fft_shape(std::uint64_t n);

/// Per-call options of the production transforms (fft/api.hpp,
/// FftExecutor, fft2d, real_fft): the worker-team size, in
/// [1, codelet::Team::kMaxWorkers] (the executor rejects anything else
/// with std::invalid_argument). The paper's codelet radix and scheduling
/// knobs live in PaperFftOptions (paper/variants.hpp), which only fft_host
/// accepts.
struct HostFftOptions {
  unsigned workers = 4;
};

}  // namespace c64fft::fft
