#pragma once
// The production pow2 kernel: one whole cache-resident transform as ONE
// split-complex sweep. The bit-reversal permutation is fused into the
// deinterleaving gather, every butterfly level runs over contiguous
// real/imaginary planes that stay hot from the first level to the last,
// and one contiguous re-interleave writes the result back. Each level
// reads its twiddle span in place from the plan entry's per-level planes
// (fft/twiddle.hpp LevelTwiddles), so the sweep loads no strided twiddle
// and keeps no twiddle scratch. The hot loops
// run through the process-active SIMD kernel table
// (fft/kernels/dispatch.hpp); every table is bit-identical to the scalar
// one.
//
// The overloads are concrete at both precisions (f64 = cplx, f32 =
// cplx32) — not deduced — so call sites that pass a std::vector<cplx>
// where a span is expected keep compiling.

#include <cstdint>
#include <span>

#include "fft/twiddle.hpp"
#include "fft/types.hpp"

namespace c64fft::fft {

/// One whole pow2 transform of n = data.size() points as ONE split-complex
/// sweep: the bit-reversal permutation fused into the deinterleaving
/// gather, then all log2(n) butterfly levels (the fused first pass
/// included), then one contiguous re-interleave: one read and one write
/// pass over `data`. Level L pairs g with g + 2^L under
/// W_n^((g mod 2^L) << (log2 n - L - 1)), so the result is bit-identical to
/// bit-reversing `data` and running every stage of the paper's radix-2^r
/// codelets (paper/codelet_kernel.hpp) at any radix. The executor's serial
/// pow2 body, Bluestein's serial convolutions and the hierarchical sub-FFT
/// rows all run through this.
///
/// Requirements: n >= 2 is a power of two; `twiddles` are the n-point
/// per-level planes (PlanEntry::level_twiddles), every level's span read
/// in place; `bitrev_idx[g]` is the log2(n)-bit reversal of g for g < n;
/// `split` holds 2n scalars, the re and im planes.
void run_transform_split(std::span<cplx> data,
                         const LevelTwiddles<double>& twiddles,
                         std::span<const std::uint32_t> bitrev_idx,
                         double* split);
void run_transform_split(std::span<cplx32> data,
                         const LevelTwiddles<float>& twiddles,
                         std::span<const std::uint32_t> bitrev_idx,
                         float* split);

}  // namespace c64fft::fft
