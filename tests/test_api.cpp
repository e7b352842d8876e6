#include "fft/api.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "paper/reference.hpp"
#include "util/prng.hpp"
#include "util/window.hpp"

namespace c64fft::fft {
namespace {

std::vector<cplx> random_signal(std::uint64_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<cplx> v(n);
  for (auto& x : v) x = cplx(rng.next_double() * 2 - 1, rng.next_double() * 2 - 1);
  return v;
}

TEST(Api, ForwardMatchesReference) {
  auto data = random_signal(1ULL << 12, 1);
  auto want = data;
  fft_serial_inplace(want);
  forward(data);
  EXPECT_LT(max_abs_error(data, want), 1e-9);
}

TEST(Api, TinySizesClampRadix) {
  // Sizes below the paper's radix of 64 run like any other: production
  // takes no radix.
  for (std::uint64_t n : {2ULL, 4ULL, 16ULL, 32ULL}) {
    auto data = random_signal(n, n);
    auto want = data;
    fft_serial_inplace(want);
    forward(data);
    EXPECT_LT(max_abs_error(data, want), 1e-10) << n;
  }
}

TEST(Api, RejectsBadSizes) {
  // Arbitrary N >= 2 is accepted (composite sizes run the mixed-radix or
  // Bluestein plan); only the degenerate sizes still throw.
  std::vector<cplx> one(1);
  EXPECT_THROW(forward(one), std::invalid_argument);
  std::vector<cplx> empty;
  EXPECT_THROW(forward(empty), std::invalid_argument);
}

TEST(Api, CompositeSizesRoundTrip) {
  for (std::uint64_t n : {10ULL, 100ULL, 360ULL, 101ULL}) {
    const auto input = random_signal(n, 17);
    auto data = input;
    forward(data);
    inverse(data);
    EXPECT_LT(max_abs_error(data, input), 1e-9) << "n=" << n;
  }
}

TEST(Api, TransformOfACopyLeavesInputIntact) {
  const auto input = random_signal(256, 8);
  const auto copy = input;
  auto spec = input;
  forward(spec);
  EXPECT_EQ(max_abs_error(input, copy), 0.0);
  auto back = spec;
  inverse(back);
  EXPECT_LT(max_abs_error(back, input), 1e-10);
}

TEST(Api, PowerSpectrumFindsTone) {
  // 440-bin tone in a 4096-sample window.
  const std::size_t n = 4096, tone = 440;
  std::vector<double> signal(n);
  for (std::size_t i = 0; i < n; ++i)
    signal[i] = std::sin(2.0 * std::numbers::pi * tone * i / static_cast<double>(n));
  const auto spec = util::power_spectrum(signal);
  ASSERT_EQ(spec.size(), n / 2 + 1);
  std::size_t peak = 0;
  for (std::size_t k = 1; k < spec.size(); ++k)
    if (spec[k] > spec[peak]) peak = k;
  EXPECT_EQ(peak, tone);
}

TEST(Api, PowerSpectrumPadsToPow2) {
  std::vector<double> signal(1000, 1.0);
  const auto spec = util::power_spectrum(signal);
  EXPECT_EQ(spec.size(), 1024 / 2 + 1);
  EXPECT_TRUE(util::power_spectrum({}).empty());
}

TEST(Api, CircularConvolutionMatchesDirect) {
  const std::size_t n = 64;
  const auto a = random_signal(n, 2);
  const auto b = random_signal(n, 3);
  // Direct O(n^2) circular convolution.
  std::vector<cplx> want(n, cplx{0, 0});
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = 0; j < n; ++j) want[(i + j) % n] += a[i] * b[j];
  const auto got = circular_convolve(a, b);
  EXPECT_LT(max_abs_error(got, want), 1e-9);
}

TEST(Api, ConvolutionRejectsMismatch) {
  EXPECT_THROW(circular_convolve(std::vector<cplx>(8), std::vector<cplx>(16)),
               std::invalid_argument);
}

TEST(Api, ConvolutionWithDeltaIsIdentity) {
  const auto a = random_signal(128, 4);
  std::vector<cplx> delta(128, cplx{0, 0});
  delta[0] = cplx(1, 0);
  const auto got = circular_convolve(a, delta);
  EXPECT_LT(max_abs_error(got, a), 1e-10);
}

}  // namespace
}  // namespace c64fft::fft
