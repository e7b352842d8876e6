// Blocked transpose kernels: equivalence with the naive element loop for
// arbitrary (not just tile-multiple or power-of-two) shapes, the
// involution property transpose(transpose(x)) == x on non-square
// matrices, the in-place square kernel against the out-of-place one, and
// the fused twiddle-transpose tile (transpose_twiddle_tile_panel) against
// an unfused reference built from std::polar, plus the bit-identity of
// its panel gathers with the full-matrix sweep.

#include "fft/transpose.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include "paper/reference.hpp"
#include "util/prng.hpp"

namespace c64fft::fft {
namespace {

std::vector<cplx> random_matrix(std::uint64_t rows, std::uint64_t cols,
                                std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<cplx> m(rows * cols);
  for (auto& x : m) x = cplx(rng.next_double() * 2 - 1, rng.next_double() * 2 - 1);
  return m;
}

/// Full-matrix fused twiddle-transpose over the kernel's tile grid,
/// restricted to source columns [col0, col1): dst holds (col1 - col0)
/// destination rows of `rows` elements — the hierarchical pipeline's
/// panel shape (col0 = 0, col1 = cols gives the whole cols x rows
/// transpose).
std::vector<cplx> twiddle_transpose(const std::vector<cplx>& src,
                                    std::uint64_t rows, std::uint64_t cols,
                                    TwiddleDirection dir, std::uint64_t col0,
                                    std::uint64_t col1) {
  std::vector<cplx> dst((col1 - col0) * rows);
  const cplx w1 = unit_root<double>(rows * cols, 1, dir);
  for (std::uint64_t r0 = 0; r0 < rows; r0 += kTransposeTile)
    for (std::uint64_t c0 = col0; c0 < col1; c0 += kTransposeTile)
      transpose_twiddle_tile_panel<double>(
          src.data(), dst.data(), rows, cols, dir, r0,
          std::min(rows, r0 + kTransposeTile), c0,
          std::min(col1, c0 + kTransposeTile), w1, col0);
  return dst;
}

std::vector<cplx> transpose_naive(const std::vector<cplx>& src, std::uint64_t rows,
                                  std::uint64_t cols) {
  std::vector<cplx> dst(src.size());
  for (std::uint64_t r = 0; r < rows; ++r)
    for (std::uint64_t c = 0; c < cols; ++c) dst[c * rows + r] = src[r * cols + c];
  return dst;
}

TEST(Transpose, BlockedMatchesNaiveAcrossShapes) {
  // Shapes straddle every tiling case: smaller than a tile, exact tile
  // multiples, ragged edges in one or both dimensions, and tall/wide
  // aspect ratios.
  const std::pair<std::uint64_t, std::uint64_t> shapes[] = {
      {1, 1}, {1, 7}, {5, 3}, {16, 16}, {16, 48}, {33, 17}, {128, 64}, {31, 129}};
  for (auto [rows, cols] : shapes) {
    const auto src = random_matrix(rows, cols, rows * 1000 + cols);
    std::vector<cplx> dst(src.size());
    transpose_blocked(src, dst, rows, cols);
    EXPECT_EQ(dst, transpose_naive(src, rows, cols)) << rows << "x" << cols;
  }
}

TEST(Transpose, BlockedIsAnInvolutionOnNonSquare) {
  const std::uint64_t rows = 96, cols = 40;
  const auto src = random_matrix(rows, cols, 42);
  std::vector<cplx> t(src.size()), back(src.size());
  transpose_blocked(src, t, rows, cols);
  transpose_blocked(t, back, cols, rows);
  EXPECT_EQ(back, src);
}

TEST(Transpose, InplaceSquareMatchesBlocked) {
  for (std::uint64_t n : {std::uint64_t{1}, std::uint64_t{8}, std::uint64_t{16},
                          std::uint64_t{33}, std::uint64_t{100}, std::uint64_t{128}}) {
    auto data = random_matrix(n, n, n);
    std::vector<cplx> want(data.size());
    transpose_blocked(data, want, n, n);
    transpose_inplace_square(data, n);
    EXPECT_EQ(data, want) << n;
  }
}

TEST(Transpose, InplaceSquareIsAnInvolution) {
  const std::uint64_t n = 80;
  const auto src = random_matrix(n, n, 7);
  auto data = src;
  transpose_inplace_square(data, n);
  transpose_inplace_square(data, n);
  EXPECT_EQ(data, src);
}

TEST(Transpose, TwiddleTileMatchesPolarReference) {
  for (TwiddleDirection dir :
       {TwiddleDirection::kForward, TwiddleDirection::kInverse}) {
    const std::uint64_t rows = 24, cols = 40;  // n = 960, ragged tiles
    const std::uint64_t n = rows * cols;
    const double sign = dir == TwiddleDirection::kForward ? -1.0 : 1.0;
    const auto src = random_matrix(rows, cols, 11);
    const std::vector<cplx> got =
        twiddle_transpose(src, rows, cols, dir, 0, cols);
    std::vector<cplx> want(n);
    for (std::uint64_t r = 0; r < rows; ++r)
      for (std::uint64_t c = 0; c < cols; ++c) {
        const double angle =
            sign * 2.0 * std::numbers::pi * static_cast<double>(r * c) /
            static_cast<double>(n);
        want[c * rows + r] = src[r * cols + c] * std::polar(1.0, angle);
      }
    // The per-tile geometric recurrence is at most kTransposeTile steps
    // long, so its drift against direct polar evaluation stays at a few
    // ulps even for the largest exponents.
    EXPECT_LT(max_abs_error(got, want), 1e-12) << static_cast<int>(dir);
  }
}

TEST(Transpose, TwiddleFusionEquivalentToSeparatePasses) {
  const std::uint64_t rows = 32, cols = 32;
  const auto src = random_matrix(rows, cols, 3);
  const std::vector<cplx> fused =
      twiddle_transpose(src, rows, cols, TwiddleDirection::kForward, 0, cols);

  std::vector<cplx> scaled = src;
  for (std::uint64_t r = 0; r < rows; ++r)
    for (std::uint64_t c = 0; c < cols; ++c)
      scaled[r * cols + c] *= unit_root<double>(rows * cols, r * c);
  std::vector<cplx> unfused(src.size());
  transpose_blocked(scaled, unfused, rows, cols);
  // Not bit-identical (the fused kernel generates factors by recurrence,
  // the reference evaluates each root directly) but within a few ulps.
  EXPECT_LT(max_abs_error(fused, unfused), 1e-13);
}

TEST(Transpose, TwiddlePanelsAreBitIdenticalToFullMatrix) {
  // The hierarchical pipeline gathers tile-aligned column blocks into
  // per-worker panels; each panel must hold exactly the destination rows
  // of the full-matrix sweep, bit for bit, whatever the block boundaries
  // (ragged last block included).
  const std::uint64_t rows = 40, cols = 72;
  const auto src = random_matrix(rows, cols, 19);
  for (TwiddleDirection dir :
       {TwiddleDirection::kForward, TwiddleDirection::kInverse}) {
    const auto full = twiddle_transpose(src, rows, cols, dir, 0, cols);
    for (std::uint64_t block : {kTransposeTile, 2 * kTransposeTile}) {
      for (std::uint64_t c0 = 0; c0 < cols; c0 += block) {
        const std::uint64_t c1 = std::min(cols, c0 + block);
        const auto panel = twiddle_transpose(src, rows, cols, dir, c0, c1);
        const std::vector<cplx> want(
            full.begin() + static_cast<std::ptrdiff_t>(c0 * rows),
            full.begin() + static_cast<std::ptrdiff_t>(c1 * rows));
        EXPECT_EQ(panel, want) << "block=" << block << " c0=" << c0;
      }
    }
  }
}

TEST(Transpose, ShapeMismatchThrows) {
  std::vector<cplx> src(12), dst(12), small(11);
  EXPECT_THROW(transpose_blocked(src, dst, 3, 5), std::invalid_argument);
  EXPECT_THROW(transpose_blocked(src, small, 3, 4), std::invalid_argument);
  EXPECT_THROW(transpose_inplace_square(src, 4), std::invalid_argument);
}

}  // namespace
}  // namespace c64fft::fft
