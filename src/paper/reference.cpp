#include "paper/reference.hpp"

#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

#include "fft/twiddle.hpp"
#include "paper/bit_reversal.hpp"
#include "util/bit_ops.hpp"

namespace c64fft::fft {
namespace {

template <typename T>
std::vector<cplx_t<T>> dft_impl(std::span<const cplx_t<T>> input) {
  const std::size_t n = input.size();
  std::vector<cplx_t<T>> out(n);
  const double step = -2.0 * std::numbers::pi / static_cast<double>(n);
  for (std::size_t k = 0; k < n; ++k) {
    cplx_t<T> acc{0, 0};
    for (std::size_t j = 0; j < n; ++j) {
      const double angle = step * static_cast<double>((j * k) % n);
      acc += input[j] * cplx_t<T>(static_cast<T>(std::cos(angle)),
                                  static_cast<T>(std::sin(angle)));
    }
    out[k] = acc;
  }
  return out;
}

template <typename T>
void fft_rec(std::span<cplx_t<T>> v) {
  const std::size_t n = v.size();
  if (n <= 1) return;
  std::vector<cplx_t<T>> even(n / 2), odd(n / 2);
  for (std::size_t i = 0; i < n / 2; ++i) {
    even[i] = v[2 * i];
    odd[i] = v[2 * i + 1];
  }
  fft_rec<T>(even);
  fft_rec<T>(odd);
  const double step = -2.0 * std::numbers::pi / static_cast<double>(n);
  for (std::size_t k = 0; k < n / 2; ++k) {
    const double angle = step * static_cast<double>(k);
    const cplx_t<T> t = cplx_t<T>(static_cast<T>(std::cos(angle)),
                                  static_cast<T>(std::sin(angle))) *
                        odd[k];
    v[k] = even[k] + t;
    v[k + n / 2] = even[k] - t;
  }
}

template <typename T>
void serial_inplace_impl(std::span<cplx_t<T>> data) {
  const std::uint64_t n = data.size();
  if (!util::is_pow2(n)) throw std::invalid_argument("fft_serial_inplace: non-power-of-two");
  if (n == 1) return;
  bit_reverse_permute(data);
  std::vector<cplx_t<T>> tw(n / 2);
  for (std::uint64_t t = 0; t < n / 2; ++t) tw[t] = unit_root<T>(n, t);
  const unsigned bits = util::ilog2(n);
  for (unsigned level = 0; level < bits; ++level) {
    const std::uint64_t half = std::uint64_t{1} << level;
    const unsigned shift = bits - level - 1;
    for (std::uint64_t block = 0; block < n; block += 2 * half) {
      for (std::uint64_t p = 0; p < half; ++p) {
        const cplx_t<T> w = tw[p << shift];
        const cplx_t<T> t = w * data[block + p + half];
        data[block + p + half] = data[block + p] - t;
        data[block + p] += t;
      }
    }
  }
}

template <typename T>
std::vector<cplx_t<T>> ifft_impl(std::span<const cplx_t<T>> input) {
  std::vector<cplx_t<T>> tmp(input.size());
  for (std::size_t i = 0; i < input.size(); ++i) tmp[i] = std::conj(input[i]);
  serial_inplace_impl<T>(tmp);
  const T inv = static_cast<T>(1.0 / static_cast<double>(input.size()));
  for (auto& v : tmp) v = std::conj(v) * inv;
  return tmp;
}

// Error metrics: `A`/`B` may differ in precision; everything is widened to
// double before the subtraction so the metric itself adds no rounding.
template <typename A, typename B>
double max_abs_impl(std::span<const cplx_t<A>> a, std::span<const cplx_t<B>> b) {
  if (a.size() != b.size()) return std::numeric_limits<double>::infinity();
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const cplx wa(a[i].real(), a[i].imag());
    const cplx wb(b[i].real(), b[i].imag());
    worst = std::max(worst, std::abs(wa - wb));
  }
  return worst;
}

template <typename A, typename B>
double rel_l2_impl(std::span<const cplx_t<A>> a, std::span<const cplx_t<B>> b) {
  if (a.size() != b.size()) return std::numeric_limits<double>::infinity();
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const cplx wa(a[i].real(), a[i].imag());
    const cplx wb(b[i].real(), b[i].imag());
    num += std::norm(wa - wb);
    den += std::norm(wb);
  }
  return std::sqrt(num) / std::max(std::sqrt(den), 1e-300);
}

}  // namespace

std::vector<cplx> dft_reference(std::span<const cplx> input) {
  return dft_impl<double>(input);
}

std::vector<cplx32> dft_reference(std::span<const cplx32> input) {
  return dft_impl<float>(input);
}

std::vector<cplx> fft_recursive(std::span<const cplx> input) {
  if (!util::is_pow2(input.size()))
    throw std::invalid_argument("fft_recursive: N must be a power of two");
  std::vector<cplx> out(input.begin(), input.end());
  fft_rec<double>(out);
  return out;
}

std::vector<cplx32> fft_recursive(std::span<const cplx32> input) {
  if (!util::is_pow2(input.size()))
    throw std::invalid_argument("fft_recursive: N must be a power of two");
  std::vector<cplx32> out(input.begin(), input.end());
  fft_rec<float>(out);
  return out;
}

void fft_serial_inplace(std::span<cplx> data) { serial_inplace_impl<double>(data); }
void fft_serial_inplace(std::span<cplx32> data) { serial_inplace_impl<float>(data); }

std::vector<cplx> ifft_reference(std::span<const cplx> input) {
  return ifft_impl<double>(input);
}

std::vector<cplx32> ifft_reference(std::span<const cplx32> input) {
  return ifft_impl<float>(input);
}

double max_abs_error(std::span<const cplx> a, std::span<const cplx> b) {
  return max_abs_impl<double, double>(a, b);
}

double max_abs_error(std::span<const cplx32> a, std::span<const cplx32> b) {
  return max_abs_impl<float, float>(a, b);
}

double max_abs_error(std::span<const cplx32> a, std::span<const cplx> b) {
  return max_abs_impl<float, double>(a, b);
}

double rel_l2_error(std::span<const cplx> a, std::span<const cplx> b) {
  return rel_l2_impl<double, double>(a, b);
}

double rel_l2_error(std::span<const cplx32> a, std::span<const cplx32> b) {
  return rel_l2_impl<float, float>(a, b);
}

double rel_l2_error(std::span<const cplx32> a, std::span<const cplx> b) {
  return rel_l2_impl<float, double>(a, b);
}

}  // namespace c64fft::fft
