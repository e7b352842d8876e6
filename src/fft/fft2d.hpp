#pragma once
// 2-D FFT (row-column decomposition) built on the 1-D codelet FFT —
// the extension direction the paper inherits from Chen et al.'s 1-D/2-D
// C64 study. Rows and columns are independent 1-D transforms, so each
// pass is itself a pool of parallel codelets. Both precisions are served
// by one template body in fft2d.cpp (the cplx32 overloads are the f32
// path).

#include <cstdint>
#include <span>

#include "fft/plan.hpp"
#include "fft/types.hpp"

namespace c64fft::fft {

/// Validated shape of one 2-D transform: the dimensions and whether the
/// column pass transposes in place (square) or bounces through a scratch
/// buffer. This is the model-builder
/// hook shared between forward_2d/inverse_2d and the static pipeline
/// model (analysis::build_fft2d_pipeline), so the verifier analyzes
/// exactly the pass structure the runtime executes. Throws
/// std::invalid_argument on non-power-of-two dims or a size mismatch
/// (a rows * cols product that wraps past 2^64 included).
struct Fft2dShape {
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  bool square = false;
};
Fft2dShape fft2d_shape(std::size_t size, std::uint64_t rows, std::uint64_t cols);

/// In-place 2-D forward FFT of a row-major `rows x cols` matrix; both
/// dimensions must be powers of two >= 2.
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
