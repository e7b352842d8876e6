#include "paper/reference.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "util/prng.hpp"

namespace c64fft::fft {
namespace {

std::vector<cplx> random_signal(std::uint64_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<cplx> v(n);
  for (auto& x : v) x = cplx(rng.next_double() * 2 - 1, rng.next_double() * 2 - 1);
  return v;
}

TEST(Reference, DftOfImpulseIsFlat) {
  std::vector<cplx> x(8, cplx{0, 0});
  x[0] = cplx(1, 0);
  const auto X = dft_reference(x);
  for (const auto& v : X) {
    EXPECT_NEAR(v.real(), 1.0, 1e-12);
    EXPECT_NEAR(v.imag(), 0.0, 1e-12);
  }
}

TEST(Reference, DftOfConstantIsImpulse) {
  std::vector<cplx> x(16, cplx{1, 0});
  const auto X = dft_reference(x);
  EXPECT_NEAR(X[0].real(), 16.0, 1e-10);
  for (std::size_t k = 1; k < 16; ++k) EXPECT_NEAR(std::abs(X[k]), 0.0, 1e-10);
}

TEST(Reference, DftOfPureToneIsSingleBin) {
  const std::size_t n = 32, tone = 5;
  std::vector<cplx> x(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double a = 2.0 * std::numbers::pi * static_cast<double>(tone * j) / n;
    x[j] = cplx(std::cos(a), std::sin(a));
  }
  const auto X = dft_reference(x);
  EXPECT_NEAR(std::abs(X[tone]), static_cast<double>(n), 1e-9);
  for (std::size_t k = 0; k < n; ++k) {
    if (k != tone) {
      EXPECT_NEAR(std::abs(X[k]), 0.0, 1e-9) << k;
    }
  }
}

TEST(Reference, RecursiveMatchesDft) {
  for (std::uint64_t n : {2ULL, 8ULL, 64ULL, 256ULL}) {
    const auto x = random_signal(n, n);
    const auto want = dft_reference(x);
    const auto got = fft_recursive(x);
    EXPECT_LT(max_abs_error(got, want), 1e-9) << n;
  }
}

TEST(Reference, SerialInplaceMatchesDft) {
  for (std::uint64_t n : {2ULL, 4ULL, 32ULL, 128ULL, 1024ULL}) {
    auto x = random_signal(n, n + 1);
    const auto want = dft_reference(x);
    fft_serial_inplace(x);
    EXPECT_LT(max_abs_error(x, want), 1e-8) << n;
  }
}

TEST(Reference, RecursiveRejectsNonPow2) {
  EXPECT_THROW(fft_recursive(std::vector<cplx>(3)), std::invalid_argument);
}

TEST(Reference, ForwardInverseRoundTrip) {
  const auto x = random_signal(512, 7);
  auto y = x;
  fft_serial_inplace(y);
  const auto back = ifft_reference(y);
  EXPECT_LT(max_abs_error(back, x), 1e-10);
}

TEST(Reference, ParsevalHolds) {
  const auto x = random_signal(256, 9);
  auto X = x;
  fft_serial_inplace(X);
  double time_energy = 0, freq_energy = 0;
  for (const auto& v : x) time_energy += std::norm(v);
  for (const auto& v : X) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy / 256.0, time_energy, 1e-8);
}

TEST(Reference, LinearityHolds) {
  const auto a = random_signal(128, 1);
  const auto b = random_signal(128, 2);
  std::vector<cplx> sum(128);
  for (int i = 0; i < 128; ++i) sum[i] = a[i] + 2.0 * b[i];
  auto fa = a, fb = b, fs = sum;
  fft_serial_inplace(fa);
  fft_serial_inplace(fb);
  fft_serial_inplace(fs);
  for (int i = 0; i < 128; ++i)
    EXPECT_NEAR(std::abs(fs[i] - (fa[i] + 2.0 * fb[i])), 0.0, 1e-9);
}

TEST(Reference, ErrorMetrics) {
  std::vector<cplx> a{cplx(1, 0), cplx(0, 0)};
  std::vector<cplx> b{cplx(1, 0), cplx(0, 1)};
  EXPECT_DOUBLE_EQ(max_abs_error(a, a), 0.0);
  EXPECT_DOUBLE_EQ(max_abs_error(a, b), 1.0);
  EXPECT_TRUE(std::isinf(max_abs_error(a, std::vector<cplx>(3))));
  EXPECT_NEAR(rel_l2_error(a, b), 1.0 / std::sqrt(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(rel_l2_error(b, b), 0.0);
}

}  // namespace
}  // namespace c64fft::fft
