#include "paper/transpose.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "fft/kernels/dispatch.hpp"
#include "fft/transpose.hpp"

namespace c64fft::fft {

namespace {

void check_shape(std::size_t src_size, std::size_t dst_size, std::uint64_t rows,
                 std::uint64_t cols) {
  if (src_size != rows * cols || dst_size != rows * cols)
    throw std::invalid_argument("transpose: buffer size != rows * cols");
}

/// Diagonal-tile micro-kernel of the in-place square transpose: swap the
/// strict upper triangle of the tile at (d0, d0) with its mirror. The
/// whole tile is L1-resident, so the triangular (non-streaming) access
/// pattern costs nothing extra.
template <typename T>
void transpose_diag_tile(cplx_t<T>* data, std::uint64_t n, std::uint64_t d0,
                         std::uint64_t dmax) {
  for (std::uint64_t r = d0; r < dmax; ++r)
    for (std::uint64_t c = r + 1; c < dmax; ++c)
      std::swap(data[r * n + c], data[c * n + r]);
}

template <typename T>
void blocked_impl(std::span<const cplx_t<T>> src, std::span<cplx_t<T>> dst,
                  std::uint64_t rows, std::uint64_t cols) {
  check_shape(src.size(), dst.size(), rows, cols);
  // Each tile runs through the process-active SIMD kernel table's
  // transpose micro-kernel (register-blocked shuffles on AVX2+, the plain
  // doubly-nested copy on the scalar table). Pure element moves — the
  // result is the same permutation whatever the table.
  const kernels::KernelDispatch<T>& K = kernels::active_kernels<T>();
  for (std::uint64_t r0 = 0; r0 < rows; r0 += kTransposeTile) {
    const std::uint64_t rmax = std::min(rows, r0 + kTransposeTile);
    for (std::uint64_t c0 = 0; c0 < cols; c0 += kTransposeTile)
      K.transpose_tile(src.data() + r0 * cols + c0, dst.data() + c0 * rows + r0,
                       cols, rows, rmax - r0,
                       std::min(cols, c0 + kTransposeTile) - c0);
  }
}

template <typename T>
void inplace_square_impl(std::span<cplx_t<T>> data, std::uint64_t n) {
  check_shape(data.size(), data.size(), n, n);
  // Off-diagonal tiles come in mirror pairs: swap-transpose (r0,c0)
  // with (c0,r0) in one pass so each pair is touched exactly once.
  for (std::uint64_t r0 = 0; r0 < n; r0 += kTransposeTile) {
    const std::uint64_t rmax = std::min(n, r0 + kTransposeTile);
    transpose_diag_tile<T>(data.data(), n, r0, rmax);
    for (std::uint64_t c0 = r0 + kTransposeTile; c0 < n; c0 += kTransposeTile) {
      const std::uint64_t cmax = std::min(n, c0 + kTransposeTile);
      for (std::uint64_t r = r0; r < rmax; ++r)
        for (std::uint64_t c = c0; c < cmax; ++c)
          std::swap(data[r * n + c], data[c * n + r]);
    }
  }
}

}  // namespace

void transpose_blocked(std::span<const cplx> src, std::span<cplx> dst,
                       std::uint64_t rows, std::uint64_t cols) {
  blocked_impl<double>(src, dst, rows, cols);
}

void transpose_blocked(std::span<const cplx32> src, std::span<cplx32> dst,
                       std::uint64_t rows, std::uint64_t cols) {
  blocked_impl<float>(src, dst, rows, cols);
}

void transpose_inplace_square(std::span<cplx> data, std::uint64_t n) {
  inplace_square_impl<double>(data, n);
}

void transpose_inplace_square(std::span<cplx32> data, std::uint64_t n) {
  inplace_square_impl<float>(data, n);
}

}  // namespace c64fft::fft
