#include "fft/fft2d.hpp"

#include <stdexcept>

#include "fft/executor.hpp"
#include "util/bit_ops.hpp"

namespace c64fft::fft {

Fft2dShape fft2d_shape(std::size_t size, std::uint64_t rows, std::uint64_t cols) {
  if (!util::is_pow2(rows) || !util::is_pow2(cols) || rows < 2 || cols < 2 ||
      util::ilog2(rows) > kMaxSweepLog2 || util::ilog2(cols) > kMaxSweepLog2)
    throw std::invalid_argument(
        "fft2d: dimensions must be powers of two in [2, 2^30]");
  // Both dimensions are at most 2^30, so the product cannot wrap.
  if (size != rows * cols) throw std::invalid_argument("fft2d: size mismatch");
  return {rows, cols};
}

void forward_2d(std::span<cplx> data, std::uint64_t rows, std::uint64_t cols,
                const HostFftOptions& opts) {
  default_executor().transform_2d(data, rows, cols, TwiddleDirection::kForward,
                                  opts);
}

void forward_2d(std::span<cplx32> data, std::uint64_t rows, std::uint64_t cols,
                const HostFftOptions& opts) {
  default_executor().transform_2d(data, rows, cols, TwiddleDirection::kForward,
                                  opts);
}

void inverse_2d(std::span<cplx> data, std::uint64_t rows, std::uint64_t cols,
                const HostFftOptions& opts) {
  default_executor().transform_2d(data, rows, cols, TwiddleDirection::kInverse,
                                  opts);
}

void inverse_2d(std::span<cplx32> data, std::uint64_t rows, std::uint64_t cols,
                const HostFftOptions& opts) {
  default_executor().transform_2d(data, rows, cols, TwiddleDirection::kInverse,
                                  opts);
}

}  // namespace c64fft::fft
