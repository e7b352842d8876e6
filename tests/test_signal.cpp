#include "util/signal.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/window.hpp"

namespace c64fft::util {
namespace {

TEST(SignalBuilder, RejectsBadRate) {
  EXPECT_THROW(SignalBuilder(16, 0.0), std::invalid_argument);
  EXPECT_THROW(SignalBuilder(16, -1.0), std::invalid_argument);
}

TEST(SignalBuilder, StartsSilent) {
  SignalBuilder sig(64, 64.0);
  for (double s : sig.real()) EXPECT_DOUBLE_EQ(s, 0.0);
}

TEST(SignalBuilder, ToneHasRightFrequencyAndAmplitude) {
  const std::size_t n = 1024;
  SignalBuilder sig(n, static_cast<double>(n));
  sig.tone({8.0, 2.0, 0.0});
  const auto& s = sig.real();
  // Peak amplitude ~2, zero crossings every n/16 samples.
  double peak = 0;
  for (double v : s) peak = std::max(peak, std::abs(v));
  EXPECT_NEAR(peak, 2.0, 1e-3);
  EXPECT_NEAR(s[0], 0.0, 1e-12);
  EXPECT_NEAR(s[n / 32], 2.0, 1e-9);  // quarter period of the 8-cycle tone
}

TEST(SignalBuilder, ComponentsSuperimpose) {
  SignalBuilder a(128, 128.0), b(128, 128.0), both(128, 128.0);
  a.tone({4.0, 1.0, 0.0});
  b.dc(0.5);
  both.tone({4.0, 1.0, 0.0}).dc(0.5);
  for (std::size_t i = 0; i < 128; ++i)
    EXPECT_DOUBLE_EQ(both.real()[i], a.real()[i] + b.real()[i]);
}

TEST(SignalBuilder, NoiseIsDeterministicAndBounded) {
  SignalBuilder a(256, 256.0), b(256, 256.0), c(256, 256.0);
  a.noise(0.5, 42);
  b.noise(0.5, 42);
  c.noise(0.5, 43);
  EXPECT_EQ(a.real(), b.real());
  EXPECT_NE(a.real(), c.real());
  for (double v : a.real()) EXPECT_LE(std::abs(v), 0.5);
}

TEST(SignalBuilder, ImpulseAndBounds) {
  SignalBuilder sig(16, 16.0);
  sig.impulse(3, 2.5);
  EXPECT_DOUBLE_EQ(sig.real()[3], 2.5);
  EXPECT_DOUBLE_EQ(sig.real()[4], 0.0);
  EXPECT_THROW(sig.impulse(16), std::out_of_range);
}

TEST(SignalBuilder, ChirpSweepsUpInFrequency) {
  // Spectral centroid of the second half must exceed the first half's.
  const std::size_t n = 4096;
  SignalBuilder sig(n, static_cast<double>(n));
  sig.chirp(100.0, 1000.0);
  auto centroid = [&](std::size_t offset) {
    std::vector<double> half(sig.real().begin() + offset,
                             sig.real().begin() + offset + n / 2);
    const auto spec = power_spectrum(half);
    double num = 0, den = 0;
    for (std::size_t k = 0; k < spec.size(); ++k) {
      num += static_cast<double>(k) * spec[k];
      den += spec[k];
    }
    return num / den;
  };
  EXPECT_GT(centroid(n / 2), 1.5 * centroid(0));
}

TEST(SignalBuilder, ComplexViewMatchesReal) {
  SignalBuilder sig(32, 32.0);
  sig.tone({1.0, 1.0, 0.3});
  const auto c = sig.complex();
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_DOUBLE_EQ(c[i].real(), sig.real()[i]);
    EXPECT_DOUBLE_EQ(c[i].imag(), 0.0);
  }
}

TEST(RandomComplex, DeterministicUnitBox) {
  const auto a = random_complex(100, 7);
  const auto b = random_complex(100, 7);
  EXPECT_EQ(a, b);
  for (const auto& v : a) {
    EXPECT_LT(std::abs(v.real()), 1.0);
    EXPECT_LT(std::abs(v.imag()), 1.0);
  }
}

}  // namespace
}  // namespace c64fft::util
