#pragma once
// Cache-blocked whole-matrix transposes: the row-column 2-D FFT's
// transpose passes, kept as harness kernels for the tests and the
// transpose benches (micro_kernels' BM_Transpose* rows, fft2d_transpose).
// Production transposes only tiles, inside the executor's tile pipeline
// (fft/transpose.hpp).
//
// A naive element-loop transpose reads one array contiguously and writes
// the other with a power-of-two column stride — on a set-associative cache
// that strided stream maps every access onto a handful of cache sets, the
// host analogue of the paper's bank-0 twiddle hotspot. Blocking the
// traversal into kTransposeTile tiles keeps both the source and the
// destination footprint of a tile inside L1.
//  * transpose_blocked        — out-of-place, any rows x cols shape; each
//    tile runs the active kernel table's transpose_tile.
//  * transpose_inplace_square — in-place square transpose: off-diagonal
//    tile *pairs* are swap-transposed; diagonal tiles swap their upper
//    triangle.

#include <cstdint>
#include <span>

#include "fft/types.hpp"

namespace c64fft::fft {

/// dst[c * rows + r] = src[r * cols + c] for a row-major rows x cols
/// `src`. `dst` must not alias `src`. Throws std::invalid_argument on
/// size mismatch.
void transpose_blocked(std::span<const cplx> src, std::span<cplx> dst,
                       std::uint64_t rows, std::uint64_t cols);
void transpose_blocked(std::span<const cplx32> src, std::span<cplx32> dst,
                       std::uint64_t rows, std::uint64_t cols);

/// In-place transpose of a row-major n x n matrix.
void transpose_inplace_square(std::span<cplx> data, std::uint64_t n);
void transpose_inplace_square(std::span<cplx32> data, std::uint64_t n);

}  // namespace c64fft::fft
