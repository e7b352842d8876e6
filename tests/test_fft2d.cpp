#include "fft/fft2d.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
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

template <typename T>
void check_sides_miss_only_when_cold() {
  // Both passes are batched row transforms on the default executor: a
  // cold 16 x 32 transform acquires one classic entry per side, and warm
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

}  // namespace
}  // namespace c64fft::fft
