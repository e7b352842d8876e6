#include "paper/twiddle_table.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <numbers>
#include <vector>

#include "fft/plan_cache.hpp"
#include "util/bit_ops.hpp"

namespace c64fft::fft {
namespace {

TEST(TwiddleTable, RejectsBadSizes) {
  EXPECT_THROW(TwiddleTable(0, TwiddleLayout::kLinear), std::invalid_argument);
  EXPECT_THROW(TwiddleTable(1, TwiddleLayout::kLinear), std::invalid_argument);
  EXPECT_THROW(TwiddleTable(100, TwiddleLayout::kLinear), std::invalid_argument);
}

TEST(TwiddleTable, SizeIsHalfN) {
  TwiddleTable t(1024, TwiddleLayout::kLinear);
  EXPECT_EQ(t.size(), 512u);
  EXPECT_EQ(t.fft_size(), 1024u);
  EXPECT_EQ(t.index_bits(), 9u);
}

TEST(TwiddleTable, KnownValues) {
  TwiddleTable t(8, TwiddleLayout::kLinear);
  // W[0] = 1, W[2] = e^{-i pi/2} = -i, W[1] = (1-i)/sqrt(2).
  EXPECT_NEAR(t.at(0).real(), 1.0, 1e-15);
  EXPECT_NEAR(t.at(0).imag(), 0.0, 1e-15);
  EXPECT_NEAR(t.at(2).real(), 0.0, 1e-15);
  EXPECT_NEAR(t.at(2).imag(), -1.0, 1e-15);
  EXPECT_NEAR(t.at(1).real(), std::sqrt(0.5), 1e-15);
  EXPECT_NEAR(t.at(1).imag(), -std::sqrt(0.5), 1e-15);
}

TEST(TwiddleTable, UnitModulus) {
  TwiddleTable t(256, TwiddleLayout::kLinear);
  for (std::uint64_t i = 0; i < t.size(); ++i)
    EXPECT_NEAR(std::abs(t.at(i)), 1.0, 1e-14);
}

TEST(TwiddleTable, BitReversedLayoutIsLogicallyIdentical) {
  // The "hash" only changes storage, never the value returned by at().
  TwiddleTable lin(512, TwiddleLayout::kLinear);
  TwiddleTable rev(512, TwiddleLayout::kBitReversed);
  for (std::uint64_t i = 0; i < lin.size(); ++i) {
    EXPECT_NEAR(lin.at(i).real(), rev.at(i).real(), 1e-15) << i;
    EXPECT_NEAR(lin.at(i).imag(), rev.at(i).imag(), 1e-15) << i;
  }
}

TEST(TwiddleTable, StorageIndexIsBijective) {
  TwiddleTable rev(256, TwiddleLayout::kBitReversed);
  std::vector<bool> seen(rev.size(), false);
  for (std::uint64_t i = 0; i < rev.size(); ++i) {
    const auto s = rev.storage_index(i);
    ASSERT_LT(s, rev.size());
    EXPECT_FALSE(seen[s]);
    seen[s] = true;
  }
}

TEST(TwiddleTable, StorageIndexLinearIsIdentity) {
  TwiddleTable lin(64, TwiddleLayout::kLinear);
  for (std::uint64_t i = 0; i < lin.size(); ++i) EXPECT_EQ(lin.storage_index(i), i);
}

TEST(TwiddleTable, StrideMultiplesOfFourScatterUnderHash) {
  // The whole point of the hash (Section IV-B): indices that are
  // multiples of 4 concentrate on one 64 B-interleaved bank linearly but
  // spread under bit reversal.
  TwiddleTable rev(1 << 12, TwiddleLayout::kBitReversed);
  std::array<int, 4> hist{};
  for (std::uint64_t t = 0; t < rev.size(); t += 32) {
    const auto slot = rev.storage_index(t);
    ++hist[(slot / 4) % 4];  // bank of a 16 B element under 64 B interleave
  }
  for (int h : hist) EXPECT_GT(h, 0);
}

TEST(TwiddleTable, InverseDirectionIsExactConjugate) {
  // The executor's inverse path relies on the inverse table being the
  // bitwise conjugate of the forward one (not just numerically close):
  // that is what makes the conj-twiddle FFT bit-identical to the classic
  // conj -> forward -> conj path.
  for (TwiddleLayout layout : {TwiddleLayout::kLinear, TwiddleLayout::kBitReversed}) {
    TwiddleTable fwd(512, layout);
    TwiddleTable inv(512, layout, TwiddleDirection::kInverse);
    EXPECT_EQ(fwd.direction(), TwiddleDirection::kForward);
    EXPECT_EQ(inv.direction(), TwiddleDirection::kInverse);
    for (std::uint64_t t = 0; t < fwd.size(); ++t) {
      EXPECT_EQ(inv.at(t).real(), fwd.at(t).real()) << t;
      EXPECT_EQ(inv.at(t).imag(), -fwd.at(t).imag()) << t;
    }
  }
}

// The production sweep's per-level planes (a classic plan entry's
// LevelTwiddles) hold exactly the linear table's entries in the order the
// sweep reads them: level v's u-th twiddle at 2^v + u is
// W[u << (log2 n - v - 1)], bit for bit, at both precisions and in both
// directions.
template <typename T>
void check_level_planes_match_linear_table() {
  for (const std::uint64_t n : {2ULL, 4ULL, 8ULL, 64ULL, 1024ULL}) {
    const PlanEntry entry(PlanKey{n, PlanKind::kClassic, precision_of<T>});
    const unsigned log2n = util::ilog2(n);
    for (const TwiddleDirection dir :
         {TwiddleDirection::kForward, TwiddleDirection::kInverse}) {
      const BasicTwiddleTable<T> table(n, TwiddleLayout::kLinear, dir);
      const LevelTwiddles<T> planes = entry.level_twiddles<T>(dir);
      ASSERT_EQ(planes.re.size(), n);
      ASSERT_EQ(planes.im.size(), n);
      for (unsigned v = 0; v < log2n; ++v)
        for (std::uint64_t u = 0; u < (std::uint64_t{1} << v); ++u) {
          const cplx_t<T> w = table.at(u << (log2n - v - 1));
          const std::uint64_t slot = (std::uint64_t{1} << v) + u;
          EXPECT_EQ(planes.re[slot], w.real()) << n << " v=" << v << " u=" << u;
          EXPECT_EQ(planes.im[slot], w.imag()) << n << " v=" << v << " u=" << u;
        }
    }
  }
}

TEST(LevelTwiddles, PlanesHoldTheLinearTableInSweepOrder) {
  check_level_planes_match_linear_table<double>();
  check_level_planes_match_linear_table<float>();
}

TEST(TwiddleTable, MinimumSize) {
  TwiddleTable t(2, TwiddleLayout::kBitReversed);
  EXPECT_EQ(t.size(), 1u);
  EXPECT_NEAR(t.at(0).real(), 1.0, 1e-15);
}

}  // namespace
}  // namespace c64fft::fft
