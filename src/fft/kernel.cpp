#include "fft/kernel.hpp"

#include <cassert>

#include "fft/kernels/dispatch.hpp"
#include "util/bit_ops.hpp"

namespace c64fft::fft {
namespace {

template <typename T>
void run_transform_split_impl(std::span<cplx_t<T>> data,
                              const LevelTwiddles<T>& twiddles,
                              std::span<const std::uint32_t> bitrev_idx,
                              T* split) {
  const std::uint64_t n = data.size();
  assert(n >= 2 && util::is_pow2(n));
  assert(bitrev_idx.size() >= n);
  assert(twiddles.re.size() == n && twiddles.im.size() == n);
  T* const re = split;
  T* const im = split + n;

  const kernels::KernelDispatch<T>& K = kernels::active_kernels<T>();

  // Permuted gather: the whole transform deinterleaves into the split
  // planes in one pass (scattered reads stay inside the cache-resident
  // transform).
  K.permute_split(data.data(), bitrev_idx.data(), n, re, im);

  // All log2 n levels on planes that stay hot from the first level to the
  // last, each reading its twiddle span in place.
  K.chain_split(re, im, n, twiddles.re.data(), twiddles.im.data());

  // Contiguous re-interleave of the whole transform.
  K.scatter_merge(re, im, n, data.data());
}

}  // namespace

void run_transform_split(std::span<cplx> data,
                         const LevelTwiddles<double>& twiddles,
                         std::span<const std::uint32_t> bitrev_idx,
                         double* split) {
  run_transform_split_impl<double>(data, twiddles, bitrev_idx, split);
}

void run_transform_split(std::span<cplx32> data,
                         const LevelTwiddles<float>& twiddles,
                         std::span<const std::uint32_t> bitrev_idx,
                         float* split) {
  run_transform_split_impl<float>(data, twiddles, bitrev_idx, split);
}

}  // namespace c64fft::fft
