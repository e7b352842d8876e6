#include "paper/bit_reversal.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "util/bit_ops.hpp"

namespace c64fft::fft {
namespace {

std::vector<cplx> iota(std::uint64_t n) {
  std::vector<cplx> v(n);
  for (std::uint64_t i = 0; i < n; ++i) v[i] = cplx(static_cast<double>(i), 0.0);
  return v;
}

TEST(BitReversal, RejectsNonPow2) {
  std::vector<cplx> v(12);
  EXPECT_THROW(bit_reverse_permute(v), std::invalid_argument);
}

TEST(BitReversal, KnownPermutationN8) {
  auto v = iota(8);
  bit_reverse_permute(v);
  const double expect[] = {0, 4, 2, 6, 1, 5, 3, 7};
  for (int i = 0; i < 8; ++i) EXPECT_DOUBLE_EQ(v[i].real(), expect[i]);
}

TEST(BitReversal, IsInvolution) {
  auto v = iota(256);
  const auto orig = v;
  bit_reverse_permute(v);
  EXPECT_NE(v, orig);
  bit_reverse_permute(v);
  EXPECT_EQ(v, orig);
}

TEST(BitReversal, ElementLandsAtReversedIndex) {
  const unsigned bits = 10;
  auto v = iota(1 << bits);
  bit_reverse_permute(v);
  for (std::uint64_t i = 0; i < v.size(); ++i)
    EXPECT_DOUBLE_EQ(v[i].real(),
                     static_cast<double>(util::bit_reverse(i, bits)));
}

TEST(BitReversal, TrivialSizes) {
  std::vector<cplx> one{cplx(5, 0)};
  bit_reverse_permute(one);
  EXPECT_DOUBLE_EQ(one[0].real(), 5.0);
  std::vector<cplx> two{cplx(1, 0), cplx(2, 0)};
  bit_reverse_permute(two);
  EXPECT_DOUBLE_EQ(two[0].real(), 1.0);
  EXPECT_DOUBLE_EQ(two[1].real(), 2.0);
}

}  // namespace
}  // namespace c64fft::fft
