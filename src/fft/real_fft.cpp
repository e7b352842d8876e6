#include "fft/real_fft.hpp"

#include <cmath>
#include <numbers>
#include <stdexcept>

#include "fft/executor.hpp"
#include "util/bit_ops.hpp"

namespace c64fft::fft {

namespace {

// Half-size packed transforms go straight through the process-wide
// executor (cached plan/twiddles, persistent team).
template <typename T>
std::vector<cplx_t<T>> real_forward_impl(std::span<const T> signal,
                                         const HostFftOptions& opts) {
  const RealFftShape shape = real_forward_shape(signal.size());
  const std::uint64_t n = shape.n;
  const std::uint64_t half = shape.half;

  // Pack even samples into the real parts and odd samples into the
  // imaginary parts of an N/2-point complex sequence.
  std::vector<cplx_t<T>> packed(half);
  for (std::uint64_t i = 0; i < half; ++i)
    packed[i] = cplx_t<T>(signal[2 * i], signal[2 * i + 1]);
  if (half >= 2) {
    default_executor().forward(std::span<cplx_t<T>>(packed), opts);
  } else {
    packed[0] = cplx_t<T>(signal[0], signal[1]);
  }

  // Untangle: with E/O the transforms of the even/odd subsequences,
  //   Z[k] = E[k] + i O[k],  Z*[half-k] = E[k] - i O[k]
  //   X[k] = E[k] + w^k O[k],  w = exp(-2 pi i / N).
  std::vector<cplx_t<T>> out(half + 1);
  const double step = -2.0 * std::numbers::pi / static_cast<double>(n);
  const T h = static_cast<T>(0.5);
  for (std::uint64_t k = 0; k <= half; ++k) {
    const auto src = real_unpack_sources(k, half);
    const cplx_t<T> zk = packed[src[0]];
    const cplx_t<T> zm = std::conj(packed[src[1]]);
    const cplx_t<T> even = h * (zk + zm);
    const cplx_t<T> odd = cplx_t<T>(0, -h) * (zk - zm);
    const cplx_t<T> w(static_cast<T>(std::cos(step * static_cast<double>(k))),
                      static_cast<T>(std::sin(step * static_cast<double>(k))));
    out[k] = even + w * odd;
  }
  return out;
}

template <typename T>
std::vector<T> real_inverse_impl(std::span<const cplx_t<T>> half_spectrum,
                                 const HostFftOptions& opts) {
  if (half_spectrum.size() < 2)
    throw std::invalid_argument("real_inverse: need at least 2 bins");
  const std::uint64_t half = half_spectrum.size() - 1;
  const std::uint64_t n = 2 * half;
  if (!util::is_pow2(n))
    throw std::invalid_argument("real_inverse: (bins-1)*2 must be a power of two");

  // Invert the untangling: recover Z[k] = E[k] + i O[k] for k < half.
  std::vector<cplx_t<T>> packed(half);
  const double step = 2.0 * std::numbers::pi / static_cast<double>(n);
  const T h = static_cast<T>(0.5);
  for (std::uint64_t k = 0; k < half; ++k) {
    const cplx_t<T> xk = half_spectrum[k];
    const cplx_t<T> xm = std::conj(half_spectrum[half - k]);
    const cplx_t<T> even = h * (xk + xm);
    const cplx_t<T> odd_w = h * (xk - xm);  // w^k O[k]
    const cplx_t<T> winv(static_cast<T>(std::cos(step * static_cast<double>(k))),
                         static_cast<T>(std::sin(step * static_cast<double>(k))));
    const cplx_t<T> odd = winv * odd_w;
    packed[k] = even + cplx_t<T>(0, 1) * odd;
  }
  if (half >= 2) default_executor().inverse(std::span<cplx_t<T>>(packed), opts);

  std::vector<T> out(n);
  for (std::uint64_t i = 0; i < half; ++i) {
    out[2 * i] = packed[i].real();
    out[2 * i + 1] = packed[i].imag();
  }
  return out;
}

}  // namespace

RealFftShape real_forward_shape(std::uint64_t n) {
  if (!util::is_pow2(n) || n < 2)
    throw std::invalid_argument("real_forward: length must be a power of two >= 2");
  RealFftShape s;
  s.n = n;
  s.half = n / 2;
  return s;
}

std::vector<cplx> real_forward(std::span<const double> signal,
                               const HostFftOptions& opts) {
  return real_forward_impl<double>(signal, opts);
}

std::vector<cplx32> real_forward(std::span<const float> signal,
                                 const HostFftOptions& opts) {
  return real_forward_impl<float>(signal, opts);
}

std::vector<double> real_inverse(std::span<const cplx> half_spectrum,
                                 const HostFftOptions& opts) {
  return real_inverse_impl<double>(half_spectrum, opts);
}

std::vector<float> real_inverse(std::span<const cplx32> half_spectrum,
                                const HostFftOptions& opts) {
  return real_inverse_impl<float>(half_spectrum, opts);
}

}  // namespace c64fft::fft
