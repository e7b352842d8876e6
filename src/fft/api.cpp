#include "fft/api.hpp"

#include <stdexcept>

#include "fft/executor.hpp"

namespace c64fft::fft {

void forward(std::span<cplx> data, const HostFftOptions& opts) {
  default_executor().forward(data, opts);
}

void forward(std::span<cplx32> data, const HostFftOptions& opts) {
  default_executor().forward(data, opts);
}

void inverse(std::span<cplx> data, const HostFftOptions& opts) {
  // The executor's inverse runs the forward stage kernels against the
  // cached conjugated twiddle table, so the old pre-conjugation pass over
  // the input is gone; only the 1/N scale epilogue remains.
  default_executor().inverse(data, opts);
}

void inverse(std::span<cplx32> data, const HostFftOptions& opts) {
  default_executor().inverse(data, opts);
}

std::vector<cplx> circular_convolve(std::span<const cplx> a, std::span<const cplx> b,
                                    const HostFftOptions& opts) {
  if (a.size() != b.size())
    throw std::invalid_argument("circular_convolve: length mismatch");
  if (a.size() < 2)
    throw std::invalid_argument("circular_convolve: length must be >= 2");
  std::vector<cplx> fa(a.begin(), a.end());
  std::vector<cplx> fb(b.begin(), b.end());
  // Transforms run at the EXACT length — the executor routes composite
  // sizes to the mixed-radix plan and awkward ones to Bluestein — because
  // a circular convolution's period is its length: padding here would
  // compute a different convolution. Both forwards go down as ONE batched
  // submission (shared plan/twiddle lookups for the pair), and `fa` is
  // reused as the output buffer of the pointwise product and the inverse.
  const std::span<cplx> pair[2] = {fa, fb};
  default_executor().forward_batch(pair, opts);
  for (std::size_t i = 0; i < fa.size(); ++i) fa[i] *= fb[i];
  default_executor().inverse(fa, opts);
  return fa;
}

}  // namespace c64fft::fft
