#include "util/window.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "fft/api.hpp"
#include "util/bit_ops.hpp"

namespace c64fft::util {

std::vector<double> make_window(WindowKind kind, std::size_t n) {
  if (n == 0) return {};
  std::vector<double> w(n, 1.0);
  const double step = 2.0 * std::numbers::pi / static_cast<double>(n);
  switch (kind) {
    case WindowKind::kRectangular:
      break;
    case WindowKind::kHann:
      for (std::size_t i = 0; i < n; ++i)
        w[i] = 0.5 - 0.5 * std::cos(step * static_cast<double>(i));
      break;
    case WindowKind::kHamming:
      for (std::size_t i = 0; i < n; ++i)
        w[i] = 0.54 - 0.46 * std::cos(step * static_cast<double>(i));
      break;
    case WindowKind::kBlackman:
      for (std::size_t i = 0; i < n; ++i) {
        const double x = step * static_cast<double>(i);
        w[i] = 0.42 - 0.5 * std::cos(x) + 0.08 * std::cos(2.0 * x);
      }
      break;
  }
  return w;
}

void apply_window(WindowKind kind, std::span<double> signal) {
  if (kind == WindowKind::kRectangular) return;
  const auto w = make_window(kind, signal.size());
  for (std::size_t i = 0; i < signal.size(); ++i) signal[i] *= w[i];
}

double coherent_gain(WindowKind kind, std::size_t n) {
  if (n == 0) return 1.0;
  const auto w = make_window(kind, n);
  double sum = 0.0;
  for (double v : w) sum += v;
  return sum / static_cast<double>(n);
}

std::string to_string(WindowKind kind) {
  switch (kind) {
    case WindowKind::kRectangular: return "rectangular";
    case WindowKind::kHann: return "hann";
    case WindowKind::kHamming: return "hamming";
    case WindowKind::kBlackman: return "blackman";
  }
  return "?";
}

std::vector<double> power_spectrum(std::span<const double> signal,
                                   const fft::HostFftOptions& opts) {
  if (signal.empty()) return {};
  std::uint64_t n = next_pow2(signal.size());
  n = std::max<std::uint64_t>(n, 2);
  std::vector<fft::cplx> buf(n, fft::cplx{0.0, 0.0});
  for (std::size_t i = 0; i < signal.size(); ++i)
    buf[i] = fft::cplx(signal[i], 0.0);
  fft::forward(buf, opts);
  std::vector<double> out(n / 2 + 1);
  for (std::size_t k = 0; k < out.size(); ++k)
    out[k] = std::norm(buf[k]) / static_cast<double>(n);
  return out;
}

}  // namespace c64fft::util
