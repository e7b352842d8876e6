#include "paper/bit_reversal.hpp"

#include <stdexcept>
#include <utility>

#include "util/bit_ops.hpp"

namespace c64fft::fft {
namespace {

template <typename T>
void permute_impl(std::span<cplx_t<T>> data) {
  const std::uint64_t n = data.size();
  if (!util::is_pow2(n)) throw std::invalid_argument("bit_reverse_permute: non-power-of-two");
  const unsigned bits = util::ilog2(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t j = util::bit_reverse(i, bits);
    if (i < j) std::swap(data[i], data[j]);
  }
}

}  // namespace

void bit_reverse_permute(std::span<cplx> data) { permute_impl<double>(data); }
void bit_reverse_permute(std::span<cplx32> data) { permute_impl<float>(data); }

}  // namespace c64fft::fft
