// 2-D FFT low-pass filtering: build a synthetic "image" (smooth gradient +
// high-frequency checkerboard noise), transform with the row-column 2-D
// FFT, zero everything outside a low-frequency disc, transform back, and
// report how much of the noise was removed.

#include <cmath>
#include <iostream>
#include <vector>

#include "fft/fft2d.hpp"
#include "paper/reference.hpp"

using c64fft::fft::cplx;

int main() {
  const std::uint64_t rows = 64, cols = 64;
  std::vector<cplx> clean(rows * cols), noisy(rows * cols);
  for (std::uint64_t r = 0; r < rows; ++r) {
    for (std::uint64_t c = 0; c < cols; ++c) {
      const double smooth =
          std::sin(2.0 * 3.14159265 * r / rows) + 0.5 * std::cos(2.0 * 3.14159265 * c / cols);
      const double checker = ((r + c) % 2 == 0) ? 0.8 : -0.8;  // Nyquist noise
      clean[r * cols + c] = cplx(smooth, 0.0);
      noisy[r * cols + c] = cplx(smooth + checker, 0.0);
    }
  }

  c64fft::fft::HostFftOptions opts;
  opts.workers = 4;
  auto freq = noisy;
  c64fft::fft::forward_2d(freq, rows, cols, opts);

  // Keep only frequencies within radius 8 of DC (accounting for wrap).
  const double cutoff = 8.0;
  for (std::uint64_t r = 0; r < rows; ++r) {
    for (std::uint64_t c = 0; c < cols; ++c) {
      const double fr = r <= rows / 2 ? static_cast<double>(r) : static_cast<double>(rows - r);
      const double fc = c <= cols / 2 ? static_cast<double>(c) : static_cast<double>(cols - c);
      if (std::sqrt(fr * fr + fc * fc) > cutoff) freq[r * cols + c] = cplx(0, 0);
    }
  }
  c64fft::fft::inverse_2d(freq, rows, cols, opts);

  const double before = c64fft::fft::rel_l2_error(noisy, clean);
  const double after = c64fft::fft::rel_l2_error(freq, clean);
  std::cout << "2-D low-pass filter on a " << rows << "x" << cols << " image\n"
            << "  relative error vs clean image before filtering: " << before << '\n'
            << "  relative error vs clean image after filtering:  " << after << '\n'
            << (after < 0.2 * before ? "  noise removed OK\n" : "  filter ineffective\n");
  return after < 0.2 * before ? 0 : 1;
}
