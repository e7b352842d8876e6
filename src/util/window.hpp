#pragma once
// Spectral-analysis helpers of the harness (examples/spectrum.cpp and
// the tests): window functions, which applied before the forward
// transform trade main-lobe width for side-lobe suppression, and the
// power spectrum of a real signal through the production transform.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fft/plan.hpp"

namespace c64fft::util {

enum class WindowKind {
  kRectangular,  ///< no windowing (all ones)
  kHann,
  kHamming,
  kBlackman,
};

/// The window coefficients w[0..n-1] (periodic form, suitable for
/// spectral analysis of continuous signals).
std::vector<double> make_window(WindowKind kind, std::size_t n);

/// Multiply `signal` by the window in place.
void apply_window(WindowKind kind, std::span<double> signal);

/// Coherent gain of the window (mean of the coefficients): divide a
/// windowed spectrum's magnitudes by this to recover amplitudes.
double coherent_gain(WindowKind kind, std::size_t n);

std::string to_string(WindowKind kind);

/// Power spectrum |X[k]|^2 / N of a real-valued signal (returns N/2+1
/// bins) through fft::forward. Pads to the next power of two >= max(n, 2).
std::vector<double> power_spectrum(std::span<const double> signal,
                                   const fft::HostFftOptions& opts = {});

}  // namespace c64fft::util
