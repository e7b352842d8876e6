#include "fft/twiddle.hpp"

#include <cmath>
#include <numbers>

namespace c64fft::fft {

template <typename T>
cplx_t<T> unit_root(std::uint64_t n, std::uint64_t t, TwiddleDirection direction) {
  const double angle =
      -2.0 * std::numbers::pi * static_cast<double>(t) / static_cast<double>(n);
  // The inverse root negates the imaginary part instead of flipping the
  // angle sign so it is the exact conjugate of the forward one. Narrowing
  // (for T = float) happens after the double-precision trig, so the f32
  // root is the rounding of the f64 one and the conjugate symmetry is
  // preserved bitwise at either precision.
  const double sign = direction == TwiddleDirection::kForward ? 1.0 : -1.0;
  return {static_cast<T>(std::cos(angle)), static_cast<T>(sign * std::sin(angle))};
}

template cplx_t<float> unit_root<float>(std::uint64_t, std::uint64_t, TwiddleDirection);
template cplx_t<double> unit_root<double>(std::uint64_t, std::uint64_t, TwiddleDirection);

}  // namespace c64fft::fft
