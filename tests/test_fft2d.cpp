#include "fft/fft2d.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <numbers>
#include <span>
#include <string_view>
#include <vector>

#include "fft/executor.hpp"
#include "paper/reference.hpp"
#include "util/prng.hpp"

namespace c64fft::fft {
namespace {

std::vector<cplx> random_matrix(std::uint64_t rows, std::uint64_t cols,
                                std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<cplx> v(rows * cols);
  for (auto& x : v) x = cplx(rng.next_double() * 2 - 1, rng.next_double() * 2 - 1);
  return v;
}

// Reference 2-D DFT by definition (O(n^4), tiny sizes only).
std::vector<cplx> dft2d(const std::vector<cplx>& x, std::uint64_t rows,
                        std::uint64_t cols) {
  std::vector<cplx> out(rows * cols);
  for (std::uint64_t kr = 0; kr < rows; ++kr)
    for (std::uint64_t kc = 0; kc < cols; ++kc) {
      cplx acc{0, 0};
      for (std::uint64_t r = 0; r < rows; ++r)
        for (std::uint64_t c = 0; c < cols; ++c) {
          const double ang = -2.0 * std::numbers::pi *
                             (static_cast<double>(kr * r) / rows +
                              static_cast<double>(kc * c) / cols);
          acc += x[r * cols + c] * cplx(std::cos(ang), std::sin(ang));
        }
      out[kr * cols + kc] = acc;
    }
  return out;
}

TEST(Fft2d, MatchesDirect2dDft) {
  const std::uint64_t rows = 8, cols = 16;
  auto m = random_matrix(rows, cols, 1);
  const auto want = dft2d(m, rows, cols);
  forward_2d(m, rows, cols);
  EXPECT_LT(max_abs_error(m, want), 1e-9);
}

TEST(Fft2d, SquareMatrix) {
  const std::uint64_t n = 16;
  auto m = random_matrix(n, n, 2);
  const auto want = dft2d(m, n, n);
  forward_2d(m, n, n);
  EXPECT_LT(max_abs_error(m, want), 1e-9);
}

TEST(Fft2d, RoundTrip) {
  const std::uint64_t rows = 32, cols = 64;
  const auto input = random_matrix(rows, cols, 3);
  auto m = input;
  HostFftOptions opts;
  opts.workers = 4;
  forward_2d(m, rows, cols, opts);
  inverse_2d(m, rows, cols, opts);
  EXPECT_LT(max_abs_error(m, input), 1e-10);
}

TEST(Fft2d, ConstantImageIsDcOnly) {
  const std::uint64_t n = 8;
  std::vector<cplx> m(n * n, cplx{1, 0});
  forward_2d(m, n, n);
  EXPECT_NEAR(m[0].real(), static_cast<double>(n * n), 1e-9);
  for (std::size_t i = 1; i < m.size(); ++i) EXPECT_NEAR(std::abs(m[i]), 0.0, 1e-9);
}

TEST(Fft2d, RejectsBadDims) {
  std::vector<cplx> m(12);
  EXPECT_THROW(forward_2d(m, 3, 4, {}), std::invalid_argument);
  std::vector<cplx> m2(16);
  EXPECT_THROW(forward_2d(m2, 2, 4, {}), std::invalid_argument);  // size mismatch
  std::vector<cplx> m3(8);
  EXPECT_THROW(forward_2d(m3, 1, 8, {}), std::invalid_argument);  // dim < 2
}

TEST(Fft2d, WorkerCountDoesNotChangeResult) {
  const std::uint64_t rows = 16, cols = 16;
  const auto input = random_matrix(rows, cols, 4);
  auto a = input, b = input;
  HostFftOptions one;
  one.workers = 1;
  HostFftOptions four;
  four.workers = 4;
  forward_2d(a, rows, cols, one);
  forward_2d(b, rows, cols, four);
  EXPECT_EQ(max_abs_error(a, b), 0.0);
}

TEST(Fft2d, FewLongRowsSpreadOverTheTeam) {
  // A view of at most one transpose tile of rows runs one row per
  // phase-A block (its rows need no tile alignment): an 8 x 4096 image
  // on 4 workers runs 8 `fft2d.A` codelets, with the bytes of a 1-worker
  // run.
  const std::uint64_t rows = 8, cols = 4096;
  const auto input = random_matrix(rows, cols, 9);
  auto one = input, four = input;
  FftExecutor& ex = default_executor();
  std::uint64_t a_phases = 0;
  std::uint64_t a_codelets = 0;
  ex.set_phase_hook([&](const codelet::PhaseStats& ps) {
    if (std::string_view(ps.label) != "fft2d.A") return;
    ++a_phases;
    a_codelets = ps.executed;
  });
  forward_2d(four, rows, cols, {4});
  const std::uint64_t four_codelets = a_codelets;
  forward_2d(one, rows, cols, {1});
  ex.set_phase_hook({});
  EXPECT_EQ(a_phases, 2u);
  EXPECT_EQ(four_codelets, rows);
  EXPECT_EQ(0, std::memcmp(one.data(), four.data(), one.size() * sizeof(cplx)));
}

template <typename T>
void check_sides_miss_only_when_cold() {
  // Each dimension's sweeps read one classic entry of the default
  // executor: a cold 16 x 32 transform acquires one per side, and warm
  // forward + inverse repeats acquire nothing and create no team.
  FftExecutor& ex = default_executor();
  ex.clear_cache();
  const HostFftOptions opts{2};
  std::vector<cplx_t<T>> image(16 * 32, cplx_t<T>(1, 0));
  const ExecutorStats before = ex.stats();
  forward_2d(std::span<cplx_t<T>>(image), 16, 32, opts);
  const ExecutorStats cold = ex.stats();
  EXPECT_EQ(cold.cache.misses - before.cache.misses, 2u);
  EXPECT_LE(cold.teams_created - before.teams_created, 1u);
  for (int round = 0; round < 2; ++round) {
    forward_2d(std::span<cplx_t<T>>(image), 16, 32, opts);
    inverse_2d(std::span<cplx_t<T>>(image), 16, 32, opts);
  }
  EXPECT_EQ(ex.stats().cache.misses, cold.cache.misses);
  EXPECT_EQ(ex.stats().teams_created, cold.teams_created);
}

TEST(Fft2d, SidesMissOnlyWhenCold) {
  check_sides_miss_only_when_cold<double>();
  check_sides_miss_only_when_cold<float>();
}

TEST(Fft2d, DimensionFromThePipelineThresholdRunsItsClassicSweep) {
  // A 2 x 2^18 f32 image: its rows are 2^18 points, the length a 1-D call
  // routes hierarchical, and run as one classic sweep each. Sampled bins
  // against the 2-D DFT summed in long double, and the round trip.
  const std::uint64_t rows = 2, cols = std::uint64_t{1} << 18;
  util::Xoshiro256 rng(7);
  std::vector<cplx32> input(rows * cols);
  for (auto& x : input)
    x = cplx32(static_cast<float>(rng.next_double() * 2 - 1),
               static_cast<float>(rng.next_double() * 2 - 1));
  std::vector<cplx32> m = input;
  forward_2d(std::span<cplx32>(m), rows, cols, {2});

  // X[kr][kc] = A_0(kc) + (-1)^kr A_1(kc), A_r the DFT of row r at kc.
  const auto row_bin = [&](std::uint64_t r, std::uint64_t kc) {
    std::complex<long double> acc = 0;
    const long double turn = -2 * std::numbers::pi_v<long double> / cols;
    for (std::uint64_t c = 0; c < cols; ++c) {
      const long double a = turn * static_cast<long double>((c * kc) % cols);
      const cplx32 x = input[r * cols + c];
      acc += std::complex<long double>(x.real(), x.imag()) *
             std::complex<long double>(std::cos(a), std::sin(a));
    }
    return acc;
  };
  double peak = 0;
  for (const cplx32& x : m)
    peak = std::max({peak, std::abs(static_cast<double>(x.real())),
                     std::abs(static_cast<double>(x.imag()))});
  double worst = 0;
  for (const std::uint64_t kc : {std::uint64_t{0}, std::uint64_t{1},
                                 std::uint64_t{12345}, cols / 2, cols - 1}) {
    const std::complex<long double> a0 = row_bin(0, kc), a1 = row_bin(1, kc);
    for (std::uint64_t kr = 0; kr < rows; ++kr) {
      const std::complex<long double> want = kr == 0 ? a0 + a1 : a0 - a1;
      const cplx32 got = m[kr * cols + kc];
      worst = std::max(
          {worst, static_cast<double>(std::abs(got.real() - want.real())),
           static_cast<double>(std::abs(got.imag() - want.imag()))});
    }
  }
  EXPECT_LT(worst / peak, 2e-6);

  inverse_2d(std::span<cplx32>(m), rows, cols, {2});
  double rt = 0;
  for (std::size_t i = 0; i < m.size(); ++i)
    rt = std::max(rt, static_cast<double>(std::abs(m[i] - input[i])));
  EXPECT_LT(rt, 4e-6);
}

}  // namespace
}  // namespace c64fft::fft
