#include "fft/real_fft.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <vector>

#include "fft/executor.hpp"
#include "paper/reference.hpp"
#include "util/prng.hpp"

namespace c64fft::fft {
namespace {

std::vector<double> random_real(std::uint64_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.next_double() * 2 - 1;
  return v;
}

// Full complex reference spectrum of a real signal.
std::vector<cplx> full_spectrum(const std::vector<double>& signal) {
  std::vector<cplx> buf(signal.size());
  for (std::size_t i = 0; i < signal.size(); ++i) buf[i] = cplx(signal[i], 0.0);
  fft_serial_inplace(buf);
  return buf;
}

TEST(RealFft, RejectsBadLengths) {
  EXPECT_THROW(real_forward(std::vector<double>(12)), std::invalid_argument);
  EXPECT_THROW(real_forward(std::vector<double>(1)), std::invalid_argument);
  EXPECT_THROW(real_inverse(std::vector<cplx>(1)), std::invalid_argument);
  EXPECT_THROW(real_inverse(std::vector<cplx>(12)), std::invalid_argument);
}

class RealFftSizes : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RealFftSizes, HalfSpectrumMatchesFullFft) {
  const std::uint64_t n = GetParam();
  const auto signal = random_real(n, n);
  const auto want = full_spectrum(signal);
  const auto got = real_forward(signal);
  ASSERT_EQ(got.size(), n / 2 + 1);
  for (std::uint64_t k = 0; k <= n / 2; ++k)
    EXPECT_LT(std::abs(got[k] - want[k]), 1e-9) << "bin " << k << " n " << n;
}

TEST_P(RealFftSizes, RoundTrip) {
  const std::uint64_t n = GetParam();
  const auto signal = random_real(n, n + 17);
  const auto spec = real_forward(signal);
  const auto back = real_inverse(spec);
  ASSERT_EQ(back.size(), n);
  for (std::uint64_t i = 0; i < n; ++i)
    EXPECT_NEAR(back[i], signal[i], 1e-10) << i;
}

INSTANTIATE_TEST_SUITE_P(Pow2, RealFftSizes,
                         ::testing::Values(2, 4, 8, 32, 256, 4096));

TEST(RealFft, DcAndNyquistAreReal) {
  const auto signal = random_real(1024, 3);
  const auto spec = real_forward(signal);
  EXPECT_NEAR(spec.front().imag(), 0.0, 1e-9);
  EXPECT_NEAR(spec.back().imag(), 0.0, 1e-9);
}

TEST(RealFft, PureToneLandsInOneBin) {
  const std::uint64_t n = 1024, tone = 37;
  std::vector<double> signal(n);
  for (std::uint64_t i = 0; i < n; ++i)
    signal[i] = std::cos(2.0 * std::numbers::pi * static_cast<double>(tone * i) /
                         static_cast<double>(n));
  const auto spec = real_forward(signal);
  for (std::uint64_t k = 0; k <= n / 2; ++k) {
    if (k == tone)
      EXPECT_NEAR(std::abs(spec[k]), static_cast<double>(n) / 2, 1e-8);
    else
      EXPECT_NEAR(std::abs(spec[k]), 0.0, 1e-8) << k;
  }
}

template <typename T>
void check_half_size_entry_misses_only_when_cold() {
  // A 256-point real transform is one 128-point complex transform on the
  // default executor: one classic entry cold, then nothing new over warm
  // forward + inverse repeats, and no new team.
  FftExecutor& ex = default_executor();
  ex.clear_cache();
  const HostFftOptions opts{2};
  const std::vector<T> signal(256, T(1));
  const ExecutorStats before = ex.stats();
  std::vector<cplx_t<T>> spec = real_forward(std::span<const T>(signal), opts);
  const ExecutorStats cold = ex.stats();
  EXPECT_EQ(cold.cache.misses - before.cache.misses, 1u);
  EXPECT_LE(cold.teams_created - before.teams_created, 1u);
  for (int round = 0; round < 2; ++round) {
    spec = real_forward(std::span<const T>(signal), opts);
    real_inverse(std::span<const cplx_t<T>>(spec), opts);
  }
  EXPECT_EQ(ex.stats().cache.misses, cold.cache.misses);
  EXPECT_EQ(ex.stats().teams_created, cold.teams_created);
}

TEST(RealFft, HalfSizeEntryMissesOnlyWhenCold) {
  check_half_size_entry_misses_only_when_cold<double>();
  check_half_size_entry_misses_only_when_cold<float>();
}

}  // namespace
}  // namespace c64fft::fft
