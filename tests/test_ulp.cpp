// Accuracy harness of the precision-generic core: the fp32 pipeline is
// judged against the fp64 serial reference in peak-ULPs (util/ulp.hpp)
// and relative L2, across every size from 2^4 to 2^16, and the fp64
// hierarchical path gets the same treatment. The tolerances are the
// documented accuracy contract of the f32 path:
//   * forward f32 vs f64 reference:  <= 24 peak-ULPs, rel-L2 <= 2e-6
//   * f32 round trip vs input:       <= 24 peak-ULPs, rel-L2 <= 2e-6
//   * f64 hierarchical vs reference: <= 64 peak-ULPs, rel-L2 <= 1e-13
// The hierarchical budget is larger than the classic one: the fused
// twiddle-transpose multiplies every element by an inter-step factor the
// classic path never applies, adding one rounding per element per pass.
// Everything is seeded and bit-deterministic, so the margins (measured
// ~4x below the bounds on the reference host) absorb libm last-bit
// differences across platforms, not run-to-run noise.

#include "util/ulp.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "executor_test_peer.hpp"
#include "fft/api.hpp"
#include "fft/executor.hpp"
#include "paper/reference.hpp"
#include "util/prng.hpp"

namespace c64fft {
namespace {

using fft::cplx;
using fft::cplx32;

constexpr double kF32UlpTol = 24.0;
constexpr double kF32RelL2Tol = 2e-6;
constexpr double kF64HierarchicalUlpTol = 64.0;
constexpr double kF64RelL2Tol = 1e-13;

std::vector<cplx32> random_signal32(std::uint64_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<cplx32> v(n);
  for (auto& x : v)
    x = cplx32(static_cast<float>(rng.next_double() * 2 - 1),
               static_cast<float>(rng.next_double() * 2 - 1));
  return v;
}

std::vector<cplx> widen(const std::vector<cplx32>& v) {
  std::vector<cplx> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i)
    out[i] = cplx(v[i].real(), v[i].imag());
  return out;
}

TEST(Ulp, UlpAtTracksBinade) {
  const double eps_f = std::numeric_limits<float>::epsilon();
  EXPECT_EQ(util::ulp_at<float>(1.0), eps_f);
  EXPECT_EQ(util::ulp_at<float>(1.75), eps_f);  // same binade as 1.0
  EXPECT_EQ(util::ulp_at<float>(2.0), 2 * eps_f);
  EXPECT_EQ(util::ulp_at<double>(1.0), std::numeric_limits<double>::epsilon());
}

TEST(Ulp, MaxUlpErrorIdentitiesAndEdgeCases) {
  std::vector<cplx> want = {{1.0, -0.5}, {0.0, 4.0}, {-0.25, 0.0}};
  std::vector<cplx32> got(want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    got[i] = cplx32(static_cast<float>(want[i].real()),
                    static_cast<float>(want[i].imag()));
  EXPECT_EQ(util::max_ulp_error(got, want), 0.0);

  // Peak is 4.0; push one component 3 peak-ULPs off.
  const double ulp = util::ulp_at<float>(4.0);
  got[0] = cplx32(static_cast<float>(1.0 + 3 * ulp), got[0].imag());
  EXPECT_NEAR(util::max_ulp_error(got, want), 3.0, 1e-6);

  // Size mismatch and non-finite values are infinite, never silent.
  std::vector<cplx32> shorter(got.begin(), got.end() - 1);
  EXPECT_TRUE(std::isinf(util::max_ulp_error(shorter, want)));
  got[1] = cplx32(std::numeric_limits<float>::quiet_NaN(), 0.0f);
  EXPECT_TRUE(std::isinf(util::max_ulp_error(got, want)));
}

TEST(Ulp, F32ForwardWithinBudgetAcrossSizes) {
  for (unsigned logn = 4; logn <= 16; ++logn) {
    const std::uint64_t n = std::uint64_t{1} << logn;
    const auto input = random_signal32(n, 0x5eed + logn);
    auto want = widen(input);
    fft::fft_serial_inplace(want);

    auto got = input;
    fft::forward(got);  // api wrapper: clamps the radix for tiny sizes
    EXPECT_LT(util::max_ulp_error(got, want), kF32UlpTol) << "n=" << n;
    EXPECT_LT(fft::rel_l2_error(got, want), kF32RelL2Tol) << "n=" << n;
  }
}

TEST(Ulp, F32RoundTripWithinBudgetAcrossSizes) {
  for (unsigned logn = 4; logn <= 16; ++logn) {
    const std::uint64_t n = std::uint64_t{1} << logn;
    const auto input = random_signal32(n, 0xabcd + logn);
    auto data = input;
    fft::forward(data);
    fft::inverse(data);
    const auto want = widen(input);
    EXPECT_LT(util::max_ulp_error(data, want), kF32UlpTol) << "n=" << n;
    EXPECT_LT(fft::rel_l2_error(data, want), kF32RelL2Tol) << "n=" << n;
  }
}

TEST(Ulp, F32CompositeSizesWithinBudget) {
  // The mixed-radix (7-smooth composite) and Bluestein (prime) paths are
  // held to the same f32 accuracy contract as the pow2 pipeline, judged
  // against the exact-N f64 naive DFT. Bluestein's two internal pow2
  // transforms plus the chirp modulations cost a little over the classic
  // budget, so primes get a 2x peak-ULP allowance (rel-L2 is unchanged).
  for (std::uint64_t n : {12ULL, 96ULL, 360ULL, 1000ULL}) {
    const auto input = random_signal32(n, 0xc0de + n);
    auto want = widen(input);
    want = fft::dft_reference(std::span<const cplx>(want));
    auto got = input;
    fft::forward(got);
    EXPECT_LT(util::max_ulp_error(got, want), kF32UlpTol) << "n=" << n;
    EXPECT_LT(fft::rel_l2_error(got, want), kF32RelL2Tol) << "n=" << n;
  }
  for (std::uint64_t n : {101ULL, 499ULL}) {
    const auto input = random_signal32(n, 0xc0de + n);
    auto want = widen(input);
    want = fft::dft_reference(std::span<const cplx>(want));
    auto got = input;
    fft::forward(got);
    EXPECT_LT(util::max_ulp_error(got, want), 2 * kF32UlpTol) << "n=" << n;
    EXPECT_LT(fft::rel_l2_error(got, want), kF32RelL2Tol) << "n=" << n;
  }
}

TEST(Ulp, F32CompositeRoundTripWithinBudget) {
  for (std::uint64_t n : {12ULL, 360ULL, 1000ULL, 101ULL}) {
    const auto input = random_signal32(n, 0xdead + n);
    auto data = input;
    fft::forward(data);
    fft::inverse(data);
    const auto want = widen(input);
    EXPECT_LT(util::max_ulp_error(data, want), 2 * kF32UlpTol) << "n=" << n;
    EXPECT_LT(fft::rel_l2_error(data, want), kF32RelL2Tol) << "n=" << n;
  }
}

TEST(Ulp, F64HierarchicalWithinBudget) {
  // Force mid sizes through the hierarchical decomposition (the test
  // peer) and hold it to the same peak-ULP discipline at double
  // precision: the transpose twiddles and the two sub-sweeps must not
  // cost more than the classic path's noise budget.
  fft::FftExecutor ex;
  for (unsigned logn : {10u, 12u, 14u}) {
    const std::uint64_t n = std::uint64_t{1} << logn;
    util::Xoshiro256 rng(0xf00d + logn);
    std::vector<cplx> input(n);
    for (auto& x : input)
      x = cplx(rng.next_double() * 2 - 1, rng.next_double() * 2 - 1);
    auto want = input;
    fft::fft_serial_inplace(want);

    auto got = input;
    fft::FftExecutorTestPeer::run<double>(ex, std::span<cplx>(got),
                                          fft::kHierarchicalRoute,
                                          fft::TwiddleDirection::kForward);
    ASSERT_GE(ex.stats().hierarchical, 1u);
    std::vector<std::complex<double>> got_d(got.begin(), got.end());
    EXPECT_LT(util::max_ulp_error(got_d, want), kF64HierarchicalUlpTol)
        << "n=" << n;
    EXPECT_LT(fft::rel_l2_error(got, want), kF64RelL2Tol) << "n=" << n;

    auto trip = got;
    fft::FftExecutorTestPeer::run<double>(ex, std::span<cplx>(trip),
                                          fft::kHierarchicalRoute,
                                          fft::TwiddleDirection::kInverse);
    EXPECT_LT(fft::rel_l2_error(trip, input), kF64RelL2Tol) << "n=" << n;
  }
}

}  // namespace
}  // namespace c64fft
