#pragma once
// The R-point codelet kernel: gather R strided elements into a local
// buffer (the "scratchpad"), apply the stage's butterfly levels with the
// proper twiddles, scatter back in place. This is the computational body
// of every task in Algorithms 1-3 (FFT_64p_kernel / FFT_last_stage_kernel).
//
// The hot path works on a split-complex tile: the gather deinterleaves
// each chain into separate real/imaginary arrays (64-byte aligned), the
// butterfly levels run as contiguous real-arithmetic loops the compiler
// auto-vectorizes, and the twiddles of a level are precomputed once into a
// span shared by every block of that level (the chain algebra makes the
// twiddle sequence identical across blocks — see butterfly_chain_split).
// The std::complex scalar path is kept as the bit-identical reference the
// tests and micro-benchmarks compare against.
//
// Every kernel exists at both precisions (f64 = cplx, f32 = cplx32); the
// overloads are concrete — not deduced — so call sites that pass a
// std::vector<cplx> where a span is expected keep compiling. The bodies
// are one internal template per kernel, explicitly instantiated in
// kernel.cpp.

#include <cstdint>
#include <span>

#include "fft/plan.hpp"
#include "fft/twiddle.hpp"
#include "fft/types.hpp"
#include "util/aligned_buffer.hpp"

namespace c64fft::fft {

/// Per-worker working set of the vectorized kernel: a split-complex data
/// tile of `radix` points plus the per-level twiddle spans (at most
/// radix/2 butterflies per level). Reused across codelets; never shared
/// between workers.
template <typename T>
struct BasicKernelScratch {
  explicit BasicKernelScratch(std::uint64_t radix)
      : re(radix), im(radix), tw_re(radix / 2), tw_im(radix / 2) {}

  util::AlignedBuffer<T> re, im;
  util::AlignedBuffer<T> tw_re, tw_im;
};

using KernelScratch = BasicKernelScratch<double>;
using KernelScratchF = BasicKernelScratch<float>;

/// Execute task `task` of stage `stage` on `data` (the full N-point
/// array) using `scratch` as the local working tile (sized for
/// plan.radix()). Thread-safe across distinct tasks of one stage: tasks
/// touch disjoint elements. Bit-identical to run_codelet_scalar.
///
/// All loops route through the process-active SIMD kernel table
/// (fft/kernels/dispatch.hpp).
void run_codelet(const FftPlan& plan, std::uint32_t stage, std::uint64_t task,
                 std::span<cplx> data, const TwiddleTable& twiddles,
                 KernelScratch& scratch);
void run_codelet(const FftPlan& plan, std::uint32_t stage, std::uint64_t task,
                 std::span<cplx32> data, const TwiddleTableF& twiddles,
                 KernelScratchF& scratch);

/// One whole pow2 transform of n = data.size() points as ONE split-complex
/// sweep: the bit-reversal permutation fused into the deinterleaving
/// gather, then all log2(n) butterfly levels as a single chain (base 0,
/// stride 1, first level 0 — the fused first pass included), then one
/// contiguous re-interleave: one read and one write pass over `data`,
/// where running the plan's stages through run_codelet gathers and
/// scatters every element once per stage. Every butterfly keeps its
/// level, its twiddle-table entry and its operation order, so the result
/// is bit-identical to bit-reversing `data` and running every stage's
/// codelets via run_codelet (or run_codelet_scalar) at any radix. The
/// executor's serial pow2 body, Bluestein's serial convolutions and the
/// hierarchical sub-FFT rows all run through this.
///
/// Requirements: n >= 2 is a power of two and twiddles.fft_size() == n;
/// `bitrev_idx[g]` is the log2(n)-bit reversal of g for g < n; `split`
/// holds 3n scalars — the re and im planes (n each), then the re and im
/// halves of the per-level twiddle span (n/2 each).
void run_transform_split(std::span<cplx> data, const TwiddleTable& twiddles,
                         std::span<const std::uint32_t> bitrev_idx,
                         double* split);
void run_transform_split(std::span<cplx32> data, const TwiddleTableF& twiddles,
                         std::span<const std::uint32_t> bitrev_idx,
                         float* split);

/// Reference scalar implementation on std::complex scratch (the original
/// kernel): kept for unit tests and the vectorized-vs-old benchmark.
void run_codelet_scalar(const FftPlan& plan, std::uint32_t stage, std::uint64_t task,
                        std::span<cplx> data, const TwiddleTable& twiddles,
                        std::span<cplx> scratch);
void run_codelet_scalar(const FftPlan& plan, std::uint32_t stage, std::uint64_t task,
                        std::span<cplx32> data, const TwiddleTableF& twiddles,
                        std::span<cplx32> scratch);

/// Apply `levels` in-place radix-2 DIT butterfly levels to a chain of
/// `len = 2^levels` points already gathered in `chain`, where the chain's
/// lower element at local q has global index `base + q*stride` and the
/// transform size is 2^log2n. Exposed separately for unit tests and
/// micro-benchmarks (scalar reference path).
void butterfly_chain(std::span<cplx> chain, std::uint64_t base, std::uint64_t stride,
                     std::uint32_t first_level, std::uint32_t levels, unsigned log2n,
                     const TwiddleTable& twiddles);
void butterfly_chain(std::span<cplx32> chain, std::uint64_t base,
                     std::uint64_t stride, std::uint32_t first_level,
                     std::uint32_t levels, unsigned log2n,
                     const TwiddleTableF& twiddles);

/// Split-complex butterfly levels over a gathered chain of `len = 2^levels`
/// points held in `re`/`im`. `tw_re`/`tw_im` must hold at least len/2
/// entries of scratch for the per-level twiddle spans. Same butterfly and
/// twiddle order as butterfly_chain — results are bit-identical.
void butterfly_chain_split(double* re, double* im, std::uint64_t len,
                           std::uint64_t base, std::uint64_t stride,
                           std::uint32_t first_level, std::uint32_t levels,
                           unsigned log2n, const TwiddleTable& twiddles,
                           double* tw_re, double* tw_im);
void butterfly_chain_split(float* re, float* im, std::uint64_t len,
                           std::uint64_t base, std::uint64_t stride,
                           std::uint32_t first_level, std::uint32_t levels,
                           unsigned log2n, const TwiddleTableF& twiddles,
                           float* tw_re, float* tw_im);

}  // namespace c64fft::fft
