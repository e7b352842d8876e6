#include "util/window.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/signal.hpp"

namespace c64fft::util {
namespace {

TEST(Window, RectangularIsAllOnes) {
  const auto w = make_window(WindowKind::kRectangular, 16);
  for (double v : w) EXPECT_DOUBLE_EQ(v, 1.0);
  EXPECT_DOUBLE_EQ(coherent_gain(WindowKind::kRectangular, 16), 1.0);
}

TEST(Window, EmptyWindow) {
  EXPECT_TRUE(make_window(WindowKind::kHann, 0).empty());
  EXPECT_DOUBLE_EQ(coherent_gain(WindowKind::kHann, 0), 1.0);
}

TEST(Window, HannEndpointsAndPeak) {
  const auto w = make_window(WindowKind::kHann, 64);
  EXPECT_NEAR(w[0], 0.0, 1e-12);
  EXPECT_NEAR(w[32], 1.0, 1e-12);  // periodic form peaks at n/2
}

TEST(Window, KnownCoherentGains) {
  EXPECT_NEAR(coherent_gain(WindowKind::kHann, 1024), 0.5, 1e-3);
  EXPECT_NEAR(coherent_gain(WindowKind::kHamming, 1024), 0.54, 1e-3);
  EXPECT_NEAR(coherent_gain(WindowKind::kBlackman, 1024), 0.42, 1e-3);
}

TEST(Window, ValuesStayInUnitRange) {
  for (auto kind : {WindowKind::kHann, WindowKind::kHamming, WindowKind::kBlackman}) {
    for (double v : make_window(kind, 257)) {
      EXPECT_GE(v, -1e-12) << to_string(kind);
      EXPECT_LE(v, 1.0 + 1e-12) << to_string(kind);
    }
  }
}

TEST(Window, ApplyInPlaceMatchesCoefficients) {
  std::vector<double> signal(128, 2.0);
  apply_window(WindowKind::kHamming, signal);
  const auto w = make_window(WindowKind::kHamming, 128);
  for (std::size_t i = 0; i < 128; ++i) EXPECT_DOUBLE_EQ(signal[i], 2.0 * w[i]);
}

TEST(Window, SuppressesSpectralLeakage) {
  // An off-bin tone leaks across the whole rectangular spectrum; a Hann
  // window concentrates it: energy two bins away from the peak must drop
  // by orders of magnitude.
  const std::size_t n = 1024;
  SignalBuilder sig(n, static_cast<double>(n));
  sig.tone({100.5, 1.0, 0.0});  // exactly between two bins

  auto rect = sig.real();
  const auto rect_spec = power_spectrum(rect);
  auto hann = sig.real();
  apply_window(WindowKind::kHann, hann);
  const auto hann_spec = power_spectrum(hann);

  // Compare relative leakage at 40 bins off the tone.
  const double rect_leak = rect_spec[140] / rect_spec[100];
  const double hann_leak = hann_spec[140] / hann_spec[100];
  EXPECT_LT(hann_leak, rect_leak / 100.0);
}

TEST(Window, Names) {
  EXPECT_EQ(to_string(WindowKind::kBlackman), "blackman");
  EXPECT_EQ(to_string(WindowKind::kRectangular), "rectangular");
}

}  // namespace
}  // namespace c64fft::util
