#include "fft/fft2d.hpp"

#include <stdexcept>
#include <vector>

#include "fft/executor.hpp"
#include "fft/transpose.hpp"
#include "util/bit_ops.hpp"

namespace c64fft::fft {

namespace {

// Transform every row as one batched executor submission: the rows share
// the cached plan/twiddles and run as one phase of whole-row codelets on
// the persistent team.
template <typename T>
void rows_pass(std::span<cplx_t<T>> data, std::uint64_t rows, std::uint64_t cols,
               const HostFftOptions& opts) {
  std::vector<std::span<cplx_t<T>>> row_spans;
  row_spans.reserve(rows);
  for (std::uint64_t r = 0; r < rows; ++r)
    row_spans.push_back(data.subspan(r * cols, cols));
  default_executor().forward_batch(row_spans, opts);
}

template <typename T>
void forward_2d_impl(std::span<cplx_t<T>> data, std::uint64_t rows,
                     std::uint64_t cols, const HostFftOptions& opts) {
  const Fft2dShape shape = fft2d_shape(data.size(), rows, cols);
  rows_pass<T>(data, rows, cols, opts);
  // Column pass via the cache-blocked transpose kernels (transpose.hpp):
  // square matrices flip in place, rectangular ones bounce through one
  // scratch buffer.
  if (shape.square) {
    transpose_inplace_square(data, rows);
    rows_pass<T>(data, cols, rows, opts);
    transpose_inplace_square(data, rows);
    return;
  }
  std::vector<cplx_t<T>> t(data.size());
  transpose_blocked(std::span<const cplx_t<T>>(data.data(), data.size()), t,
                    rows, cols);
  rows_pass<T>(std::span<cplx_t<T>>(t), cols, rows, opts);
  transpose_blocked(std::span<const cplx_t<T>>(t.data(), t.size()), data, cols,
                    rows);
}

template <typename T>
void inverse_2d_impl(std::span<cplx_t<T>> data, std::uint64_t rows,
                     std::uint64_t cols, const HostFftOptions& opts) {
  (void)fft2d_shape(data.size(), rows, cols);
  for (auto& v : data) v = std::conj(v);
  forward_2d_impl<T>(data, rows, cols, opts);
  const T inv = static_cast<T>(1.0 / static_cast<double>(data.size()));
  for (auto& v : data) v = std::conj(v) * inv;
}

}  // namespace

Fft2dShape fft2d_shape(std::size_t size, std::uint64_t rows, std::uint64_t cols) {
  if (!util::is_pow2(rows) || !util::is_pow2(cols) || rows < 2 || cols < 2)
    throw std::invalid_argument("fft2d: dimensions must be powers of two >= 2");
  // Both are powers of two, so the product wraps exactly when its log2
  // reaches 64.
  if (util::ilog2(rows) + util::ilog2(cols) >= 64 || size != rows * cols)
    throw std::invalid_argument("fft2d: size mismatch");
  Fft2dShape s;
  s.rows = rows;
  s.cols = cols;
  s.square = rows == cols;
  return s;
}

void forward_2d(std::span<cplx> data, std::uint64_t rows, std::uint64_t cols,
                const HostFftOptions& opts) {
  forward_2d_impl<double>(data, rows, cols, opts);
}

void forward_2d(std::span<cplx32> data, std::uint64_t rows, std::uint64_t cols,
                const HostFftOptions& opts) {
  forward_2d_impl<float>(data, rows, cols, opts);
}

void inverse_2d(std::span<cplx> data, std::uint64_t rows, std::uint64_t cols,
                const HostFftOptions& opts) {
  inverse_2d_impl<double>(data, rows, cols, opts);
}

void inverse_2d(std::span<cplx32> data, std::uint64_t rows, std::uint64_t cols,
                const HostFftOptions& opts) {
  inverse_2d_impl<float>(data, rows, cols, opts);
}

}  // namespace c64fft::fft
