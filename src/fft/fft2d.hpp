#pragma once
// 2-D FFT of a row-major matrix — the extension direction the paper
// inherits from Chen et al.'s 1-D/2-D C64 study. Each call is one
// FftExecutor::transform_2d: the executor's tile pipeline over the matrix
// itself, the row sweeps in one team phase and the column sweeps, in
// per-worker panels, in the other, with no transpose pass and no scratch
// of the matrix's size. Both precisions are served (the cplx32 overloads
// are the f32 path).

#include <cstdint>
#include <span>

#include "fft/plan.hpp"
#include "fft/types.hpp"

namespace c64fft::fft {

/// Validated shape of one 2-D transform. This is the model-builder hook
/// shared between the executor's transform_2d and the static pipeline
/// model (analysis::build_fft2d_pipeline), so the verifier analyzes
/// exactly the shapes the runtime accepts. Throws std::invalid_argument
/// unless both dimensions are powers of two in [2, 2^kMaxSweepLog2] (each
/// is one classic sweep, and their product cannot wrap) and
/// size == rows * cols.
struct Fft2dShape {
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
};
Fft2dShape fft2d_shape(std::size_t size, std::uint64_t rows, std::uint64_t cols);

/// In-place 2-D forward FFT of a row-major `rows x cols` matrix; both
/// dimensions must be powers of two in [2, 2^kMaxSweepLog2].
void forward_2d(std::span<cplx> data, std::uint64_t rows, std::uint64_t cols,
                const HostFftOptions& opts = {});
void forward_2d(std::span<cplx32> data, std::uint64_t rows, std::uint64_t cols,
                const HostFftOptions& opts = {});

/// In-place 2-D inverse FFT (1/(rows*cols) scaling).
void inverse_2d(std::span<cplx> data, std::uint64_t rows, std::uint64_t cols,
                const HostFftOptions& opts = {});
void inverse_2d(std::span<cplx32> data, std::uint64_t rows, std::uint64_t cols,
                const HostFftOptions& opts = {});

}  // namespace c64fft::fft
