#pragma once
// The paper's R-point codelet kernel: gather R strided elements into a
// local buffer (the "scratchpad"), apply the stage's butterfly levels with
// the proper twiddles, scatter back in place. This is the computational
// body of every task in Algorithms 1-3 (FFT_64p_kernel /
// FFT_last_stage_kernel), run by fft_host and the tests on std::complex
// scratch.
//
// Every butterfly keeps its global level, twiddle-table entry and
// operation order, so bit-reversing a transform and running every stage's
// codelets gives output bit-identical to production's whole-transform
// sweep (fft/kernel.hpp run_transform_split) at any radix, on every
// kernel ISA tier.

#include <cstdint>
#include <span>

#include "fft/types.hpp"
#include "paper/fft_plan.hpp"
#include "paper/twiddle_table.hpp"

namespace c64fft::fft {

/// Execute task `task` of stage `stage` on `data` (the full N-point
/// array), using `scratch` (at least plan.radix() points) as the local
/// tile. Thread-safe across distinct tasks of one stage: tasks touch
/// disjoint elements.
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
/// micro-benchmarks.
void butterfly_chain(std::span<cplx> chain, std::uint64_t base, std::uint64_t stride,
                     std::uint32_t first_level, std::uint32_t levels, unsigned log2n,
                     const TwiddleTable& twiddles);
void butterfly_chain(std::span<cplx32> chain, std::uint64_t base,
                     std::uint64_t stride, std::uint32_t first_level,
                     std::uint32_t levels, unsigned log2n,
                     const TwiddleTableF& twiddles);

}  // namespace c64fft::fft
