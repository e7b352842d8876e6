#include "fft/api.hpp"

#include <algorithm>
#include <stdexcept>

#include "fft/executor.hpp"
#include "util/bit_ops.hpp"

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

std::vector<cplx> forward_copy(std::span<const cplx> data, const HostFftOptions& opts) {
  std::vector<cplx> out(data.begin(), data.end());
  forward(out, opts);
  return out;
}

std::vector<cplx32> forward_copy(std::span<const cplx32> data,
                                 const HostFftOptions& opts) {
  std::vector<cplx32> out(data.begin(), data.end());
  forward(out, opts);
  return out;
}

std::vector<cplx> inverse_copy(std::span<const cplx> data, const HostFftOptions& opts) {
  std::vector<cplx> out(data.begin(), data.end());
  inverse(out, opts);
  return out;
}

std::vector<cplx32> inverse_copy(std::span<const cplx32> data,
                                 const HostFftOptions& opts) {
  std::vector<cplx32> out(data.begin(), data.end());
  inverse(out, opts);
  return out;
}

std::vector<double> power_spectrum(std::span<const double> signal,
                                   const HostFftOptions& opts) {
  if (signal.empty()) return {};
  std::uint64_t n = util::next_pow2(signal.size());
  n = std::max<std::uint64_t>(n, 2);
  std::vector<cplx> buf(n, cplx{0.0, 0.0});
  for (std::size_t i = 0; i < signal.size(); ++i) buf[i] = cplx(signal[i], 0.0);
  forward(buf, opts);
  std::vector<double> out(n / 2 + 1);
  for (std::size_t k = 0; k < out.size(); ++k)
    out[k] = std::norm(buf[k]) / static_cast<double>(n);
  return out;
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
