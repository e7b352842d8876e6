#include "fft/mixed_radix.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstring>
#include <memory>
#include <numbers>
#include <numeric>
#include <vector>

#include "fft/api.hpp"
#include "fft/executor.hpp"
#include "fft/kernels/dispatch.hpp"
#include "fft/plan_cache.hpp"
#include "paper/reference.hpp"
#include "util/bit_ops.hpp"
#include "util/cpu_features.hpp"
#include "util/prng.hpp"

namespace c64fft::fft {
namespace {

std::vector<cplx> random_signal(std::uint64_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<cplx> v(n);
  for (auto& x : v) x = cplx(rng.next_double() * 2 - 1, rng.next_double() * 2 - 1);
  return v;
}

std::vector<cplx32> random_signal32(std::uint64_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<cplx32> v(n);
  for (auto& x : v)
    x = cplx32(static_cast<float>(rng.next_double() * 2 - 1),
               static_cast<float>(rng.next_double() * 2 - 1));
  return v;
}

/// Single DFT bin computed in double regardless of input precision:
/// X[k] = sum_j x[j] exp(-2 pi i j k / N). O(N) per bin, so usable at
/// sizes where the full O(N^2) dft_reference is out of reach.
template <typename C>
cplx dft_bin(std::span<const C> x, std::uint64_t k) {
  const std::uint64_t n = x.size();
  cplx acc{0.0, 0.0};
  for (std::uint64_t j = 0; j < n; ++j) {
    // Reduce j*k mod n before the trig so the angle stays well below the
    // range where sin/cos argument reduction loses digits.
    const double angle =
        -2.0 * std::numbers::pi * static_cast<double>((j * k) % n) /
        static_cast<double>(n);
    const cplx xj(static_cast<double>(x[j].real()),
                  static_cast<double>(x[j].imag()));
    acc += xj * cplx(std::cos(angle), std::sin(angle));
  }
  return acc;
}

// ---------------------------------------------------------------------------
// factorize / digest
// ---------------------------------------------------------------------------

TEST(Factorize, ProductRecoversSmoothSizes) {
  for (std::uint64_t n : {2ULL, 3ULL, 5ULL, 6ULL, 7ULL, 12ULL, 15ULL, 60ULL,
                          120ULL, 360ULL, 1000ULL, 46305ULL, 1000000ULL}) {
    const Factorization f = factorize(n);
    EXPECT_TRUE(f.smooth) << n;
    EXPECT_EQ(f.residue, 1u) << n;
    std::uint64_t prod = 1;
    for (std::uint32_t r : f.factors) {
      EXPECT_TRUE(r == 2 || r == 3 || r == 4 || r == 5 || r == 7 || r == 8)
          << n << " radix " << r;
      prod *= r;
    }
    EXPECT_EQ(prod, n) << n;
  }
}

TEST(Factorize, NonSmoothSizesReportResidue) {
  for (std::uint64_t n : {11ULL, 13ULL, 101ULL, 46349ULL, 2ULL * 46349ULL}) {
    const Factorization f = factorize(n);
    EXPECT_FALSE(f.smooth) << n;
    EXPECT_GT(f.residue, 1u) << n;
    std::uint64_t prod = f.residue;
    for (std::uint32_t r : f.factors) prod *= r;
    EXPECT_EQ(prod, n) << n;
  }
}

TEST(Factorize, MillionIsFiveSixTwoSix) {
  // 10^6 = 2^6 * 5^6: the planner's wide-radix preference packs the pow2
  // part as two radix-8 stages.
  const Factorization f = factorize(1000000);
  ASSERT_TRUE(f.smooth);
  const std::vector<std::uint32_t> want{8, 8, 5, 5, 5, 5, 5, 5};
  EXPECT_EQ(f.factors, want);
}

// ---------------------------------------------------------------------------
// digit reversal
// ---------------------------------------------------------------------------

TEST(DigitReverse, MatchesBitReverseOnPow2) {
  for (unsigned bits : {1u, 4u, 7u, 10u}) {
    const std::uint64_t n = 1ULL << bits;
    const std::vector<std::uint32_t> factors(bits, 2u);
    for (std::uint64_t p = 0; p < n; ++p)
      EXPECT_EQ(digit_reverse(p, factors), util::bit_reverse(p, bits))
          << "bits=" << bits << " p=" << p;
  }
}

TEST(DigitReverse, ReversedFactorsInvertThePermutation) {
  // Digit reversal is NOT an involution for non-palindromic factor lists;
  // the inverse permutation is digit reversal over the reversed factors.
  const std::vector<std::vector<std::uint32_t>> cases{
      {3, 2, 2, 2},        // 3 * 2^3 = 24
      {5, 3, 2, 2, 2, 2},  // 5 * 3 * 2^4 = 240
      {8, 5, 3},           // 120
      {7, 4, 3, 2},        // 168
  };
  for (const auto& factors : cases) {
    std::vector<std::uint32_t> reversed(factors.rbegin(), factors.rend());
    const std::uint64_t n = std::accumulate(
        factors.begin(), factors.end(), std::uint64_t{1},
        [](std::uint64_t a, std::uint32_t b) { return a * b; });
    std::vector<bool> hit(n, false);
    for (std::uint64_t p = 0; p < n; ++p) {
      const std::uint64_t q = digit_reverse(p, factors);
      ASSERT_LT(q, n);
      EXPECT_FALSE(hit[q]) << "not a permutation at p=" << p;
      hit[q] = true;
      EXPECT_EQ(digit_reverse(q, reversed), p) << "p=" << p;
    }
  }
}

TEST(DigitReverse, PlanPermutationMatchesDigitReversal) {
  for (std::uint64_t n : {24ULL, 240ULL, 360ULL, 1000ULL}) {
    const MixedRadixPlan plan(n);
    // The plan gathers working[p] = input[perm[p]]; the table must be the
    // digit reversal over the stage radices in execution order.
    const auto perm = plan.permutation();
    ASSERT_EQ(perm.size(), n);
    for (std::uint64_t p = 0; p < n; ++p)
      EXPECT_EQ(perm[p], digit_reverse(p, plan.factors())) << "n=" << n;
  }
}

// ---------------------------------------------------------------------------
// serial mixed-radix transform vs the naive DFT
// ---------------------------------------------------------------------------

TEST(MixedRadixSerial, MatchesNaiveDftF64) {
  for (std::uint64_t n : {3ULL, 5ULL, 6ULL, 7ULL, 9ULL, 10ULL, 12ULL, 14ULL,
                          15ULL, 21ULL, 25ULL, 35ULL, 49ULL, 120ULL, 360ULL,
                          1000ULL}) {
    const MixedRadixPlan plan(n);
    const auto tw = mixed_radix_twiddles<double>(plan, TwiddleDirection::kForward);
    auto data = random_signal(n, n);
    const auto want = dft_reference(std::span<const cplx>(data));
    std::vector<cplx> scratch;
    mixed_radix_serial<double>(plan, tw, data, scratch,
                               TwiddleDirection::kForward);
    EXPECT_LT(max_abs_error(data, want), 1e-10 * std::sqrt(double(n))) << n;
  }
}

TEST(MixedRadixSerial, MatchesNaiveDftF32) {
  for (std::uint64_t n : {6ULL, 12ULL, 15ULL, 35ULL, 120ULL, 360ULL, 1000ULL}) {
    const MixedRadixPlan plan(n);
    const auto tw = mixed_radix_twiddles<float>(plan, TwiddleDirection::kForward);
    auto data = random_signal32(n, n);
    // f32 result judged against the f64 ground truth of the same input.
    std::vector<cplx> wide(n);
    for (std::uint64_t j = 0; j < n; ++j)
      wide[j] = cplx(data[j].real(), data[j].imag());
    const auto want = dft_reference(std::span<const cplx>(wide));
    std::vector<cplx32> scratch;
    mixed_radix_serial<float>(plan, tw, data, scratch,
                              TwiddleDirection::kForward);
    EXPECT_LT(rel_l2_error(std::span<const cplx32>(data), want), 2e-6) << n;
  }
}

TEST(MixedRadixSerial, InverseRoundTrips) {
  for (std::uint64_t n : {6ULL, 15ULL, 120ULL, 1000ULL}) {
    const MixedRadixPlan plan(n);
    const auto fwd = mixed_radix_twiddles<double>(plan, TwiddleDirection::kForward);
    const auto inv = mixed_radix_twiddles<double>(plan, TwiddleDirection::kInverse);
    const auto input = random_signal(n, 3 * n);
    auto data = input;
    std::vector<cplx> scratch;
    mixed_radix_serial<double>(plan, fwd, data, scratch,
                               TwiddleDirection::kForward);
    mixed_radix_serial<double>(plan, inv, data, scratch,
                               TwiddleDirection::kInverse);
    // The serial core is unscaled; apply the unitary 1/N here.
    for (auto& x : data) x /= static_cast<double>(n);
    EXPECT_LT(max_abs_error(data, input), 1e-10 * std::sqrt(double(n))) << n;
  }
}

// ---------------------------------------------------------------------------
// executor: acceptance sweep, both precisions
// ---------------------------------------------------------------------------

TEST(MixedRadixExecutor, AcceptanceSizesMatchNaiveDft) {
  FftExecutor ex({.workers = 2});
  for (std::uint64_t n : {6ULL, 12ULL, 15ULL, 120ULL, 1000ULL}) {
    auto data = random_signal(n, n + 7);
    const auto want = dft_reference(std::span<const cplx>(data));
    ex.forward(data);
    EXPECT_LT(max_abs_error(data, want), 1e-9) << n;
    ex.inverse(data);
    auto again = random_signal(n, n + 7);
    EXPECT_LT(max_abs_error(data, again), 1e-9) << n;
  }
  const ExecutorStats st = ex.stats();
  EXPECT_EQ(st.mixed_radix, 10u);  // 5 sizes x (forward + inverse)
  EXPECT_EQ(st.bluestein, 0u);
}

TEST(MixedRadixExecutor, AcceptanceSizesMatchNaiveDftF32) {
  FftExecutor ex({.workers = 2});
  for (std::uint64_t n : {6ULL, 12ULL, 15ULL, 120ULL, 1000ULL}) {
    auto data = random_signal32(n, n + 7);
    std::vector<cplx> wide(n);
    for (std::uint64_t j = 0; j < n; ++j)
      wide[j] = cplx(data[j].real(), data[j].imag());
    const auto want = dft_reference(std::span<const cplx>(wide));
    ex.forward(data);
    EXPECT_LT(rel_l2_error(std::span<const cplx32>(data), want), 2e-6) << n;
  }
}

// ---------------------------------------------------------------------------
// Bluestein: primes and non-smooth sizes
// ---------------------------------------------------------------------------

TEST(Bluestein, ChirpSymmetryAndUnitModulus) {
  const std::uint64_t n = 97;
  for (std::uint64_t j = 0; j < n; ++j) {
    const cplx c = bluestein_chirp<double>(n, j, TwiddleDirection::kForward);
    EXPECT_NEAR(std::abs(c), 1.0, 1e-12);
    const cplx ci = bluestein_chirp<double>(n, j, TwiddleDirection::kInverse);
    EXPECT_NEAR(std::abs(c - std::conj(ci)), 0.0, 1e-15) << j;
  }
  EXPECT_EQ(bluestein_fft_size(97), 256u);   // next_pow2(193)
  EXPECT_EQ(bluestein_fft_size(1024), 2048u);
}

TEST(Bluestein, PrimeSweepMatchesNaiveDft) {
  FftExecutor ex({.workers = 2});
  for (std::uint64_t n : {11ULL, 13ULL, 97ULL, 101ULL, 499ULL, 997ULL}) {
    auto data = random_signal(n, 5 * n);
    const auto want = dft_reference(std::span<const cplx>(data));
    ex.forward(data);
    EXPECT_LT(rel_l2_error(std::span<const cplx>(data), want), 1e-12) << n;
  }
  const ExecutorStats st = ex.stats();
  EXPECT_EQ(st.bluestein, 6u);
  EXPECT_EQ(st.mixed_radix, 0u);
}

TEST(Bluestein, PrimeSweepMatchesNaiveDftF32) {
  FftExecutor ex({.workers = 2});
  for (std::uint64_t n : {13ULL, 101ULL, 499ULL}) {
    auto data = random_signal32(n, 5 * n);
    std::vector<cplx> wide(n);
    for (std::uint64_t j = 0; j < n; ++j)
      wide[j] = cplx(data[j].real(), data[j].imag());
    const auto want = dft_reference(std::span<const cplx>(wide));
    ex.forward(data);
    EXPECT_LT(rel_l2_error(std::span<const cplx32>(data), want), 1e-5) << n;
  }
}

TEST(Bluestein, InverseRoundTrips) {
  FftExecutor ex({.workers = 2});
  for (std::uint64_t n : {11ULL, 101ULL, 997ULL}) {
    const auto input = random_signal(n, 7 * n);
    auto data = input;
    ex.forward(data);
    ex.inverse(data);
    EXPECT_LT(max_abs_error(data, input), 1e-10) << n;
  }
}

TEST(Bluestein, ConvolutionSharesTheDirectPow2Entry) {
  // Bluestein's convolution takes the key a direct pow2 call builds: a
  // 101-point forward (M = next_pow2(201) = 256) and then a direct
  // 256-point forward build the Bluestein entry plus ONE shared 256-point
  // entry.
  FftExecutor exec;
  auto prime = random_signal(101, 5);
  exec.forward(std::span<cplx>(prime));
  EXPECT_EQ(exec.stats().cache.misses, 2u);
  auto pow2 = random_signal(256, 6);
  exec.forward(std::span<cplx>(pow2));
  EXPECT_EQ(exec.stats().cache.misses, 2u);
  EXPECT_EQ(exec.stats().bluestein, 1u);
}

/// One Bluestein size of BluesteinPlanCache.EntryPinsItsConvolution: the
/// entry's M-point convolution has the routed kind `conv_kind`.
void expect_entry_pins_its_convolution(std::uint64_t n, PlanKind conv_kind) {
  const PlanKey key{n, PlanKind::kBluestein};
  const PlanKey conv_key{bluestein_fft_size(n), conv_kind};
  // Room for the entry, its convolution and a hierarchical M's one square
  // classic factor.
  PlanCache cache(3);
  std::shared_ptr<const PlanEntry> entry = cache.acquire(key);
  const std::weak_ptr<const PlanEntry> conv = entry->conv_entry();
  ASSERT_FALSE(conv.expired());
  EXPECT_EQ(conv.lock()->key(), conv_key);
  // The pin is the resident a direct M-point call gets.
  EXPECT_EQ(cache.acquire(conv_key), conv.lock());

  // A warm Bluestein acquire touches only its own key, so the convolution
  // ages in the LRU on its own: two other keys evict it (and any factor)
  // while the entry stays resident, and the pin keeps it alive.
  EXPECT_EQ(cache.acquire(key), entry);
  cache.acquire(PlanKey{16});
  cache.acquire(PlanKey{32});
  std::uint64_t misses = cache.stats().misses;
  EXPECT_EQ(cache.acquire(key), entry);
  EXPECT_EQ(cache.stats().misses, misses);
  ASSERT_FALSE(conv.expired());
  EXPECT_EQ(entry->conv_entry(), conv.lock());
  // A direct M-point call now misses and builds an entry of its own.
  misses = cache.stats().misses;
  EXPECT_NE(cache.acquire(conv_key), conv.lock());
  EXPECT_GT(cache.stats().misses, misses);

  // Accessors of the other kinds still throw, on both sides of the pin.
  EXPECT_THROW(entry->bitrev(), std::logic_error);
  EXPECT_THROW(entry->level_twiddles<double>(TwiddleDirection::kForward),
               std::logic_error);
  EXPECT_THROW(entry->split(), std::logic_error);
  EXPECT_THROW(entry->col_entry(), std::logic_error);
  EXPECT_THROW(entry->mixed_plan(), std::logic_error);
  EXPECT_THROW(conv.lock()->conv_entry(), std::logic_error);
  EXPECT_THROW(conv.lock()->chirp<double>(TwiddleDirection::kForward),
               std::logic_error);

  // The entry is the pin's last holder.
  entry.reset();
  cache.clear();
  EXPECT_TRUE(conv.expired());
}

TEST(BluesteinPlanCache, EntryPinsItsConvolution) {
  // A Bluestein entry is its whole route, as a hierarchical entry is: the
  // cache builds it over the convolution entry a direct M-point call
  // gets, classic at M = 256, hierarchical at M = 2^18.
  expect_entry_pins_its_convolution(101, PlanKind::kClassic);
  expect_entry_pins_its_convolution(65537, PlanKind::kHierarchical);

  // A Bluestein entry refuses a missing convolution, or one of the wrong
  // size, precision or kind.
  const PlanKey key{101, PlanKind::kBluestein};
  const auto conv = [](std::uint64_t m, PlanKind kind, Precision p) {
    PlanCache cache(4);
    return cache.acquire(PlanKey{m, kind, p});
  };
  EXPECT_THROW(PlanEntry(key, nullptr), std::invalid_argument);
  EXPECT_THROW(PlanEntry(key, conv(512, PlanKind::kClassic, Precision::kF64)),
               std::invalid_argument);
  EXPECT_THROW(PlanEntry(key, conv(256, PlanKind::kClassic, Precision::kF32)),
               std::invalid_argument);
  EXPECT_THROW(
      PlanEntry(key, conv(256, PlanKind::kMixedRadix, Precision::kF64)),
      std::invalid_argument);
}

/// The chirp filter's FFT by the serial radix-2 reference: the filter b
/// (b[j] = b[M-j] = conj(c[j])) at f64, fft_serial_inplace, narrowed to T.
template <typename T>
std::vector<cplx_t<T>> reference_chirp_fft(std::uint64_t n,
                                           TwiddleDirection dir) {
  const std::uint64_t m = bluestein_fft_size(n);
  std::vector<cplx> b(m);
  for (std::uint64_t j = 0; j < n; ++j) {
    const cplx c = std::conj(bluestein_chirp<double>(n, j, dir));
    b[j] = c;
    if (j != 0) b[m - j] = c;
  }
  fft_serial_inplace(std::span<cplx>(b));
  return std::vector<cplx_t<T>>(b.begin(), b.end());
}

template <typename T>
void expect_chirp_filter_matches_serial_reference() {
  struct IsaGuard {
    ~IsaGuard() { kernels::reset_kernel_isa_from_env(); }
  } guard;
  for (const util::IsaLevel isa :
       {util::IsaLevel::kScalar, util::IsaLevel::kAvx2}) {
    if (kernels::set_kernel_isa(isa) != isa) continue;
    for (const std::uint64_t n : {2ULL, 3ULL, 101ULL, 4099ULL, 65537ULL}) {
      // A fresh cache per table, so every filter is built under it.
      PlanCache cache(4);
      const auto entry =
          cache.acquire(PlanKey{n, PlanKind::kBluestein, precision_of<T>});
      for (const TwiddleDirection dir :
           {TwiddleDirection::kForward, TwiddleDirection::kInverse}) {
        const std::vector<cplx_t<T>> want = reference_chirp_fft<T>(n, dir);
        const std::span<const cplx_t<T>> got = entry->chirp_fft<T>(dir);
        ASSERT_EQ(got.size(), want.size());
        EXPECT_EQ(0, std::memcmp(got.data(), want.data(),
                                 want.size() * sizeof(cplx_t<T>)))
            << "n=" << n << " inverse=" << (dir == TwiddleDirection::kInverse)
            << " isa=" << util::to_string(isa);
      }
    }
  }
}

TEST(Bluestein, ChirpFilterMatchesSerialReferenceBitExactly) {
  // The entry's chirp-filter FFT is one production sweep over a transient
  // f64 classic entry; it must hold the bytes the serial radix-2
  // reference gives, at both precisions (f32 narrows the f64 filter),
  // both directions, every installable kernel table, and convolution
  // sizes M from 4 to 2^18.
  expect_chirp_filter_matches_serial_reference<double>();
  expect_chirp_filter_matches_serial_reference<float>();
}

// ---------------------------------------------------------------------------
// large-N acceptance: sampled-bin DFT + round trip
// ---------------------------------------------------------------------------

/// Spot-checks `got` (the forward transform of `input`) against O(N)
/// per-bin naive DFT evaluation at a pseudo-random set of bins, then
/// round-trips through the executor's inverse. Full O(N^2) references are
/// infeasible at these sizes; sampled bins plus the round trip together
/// pin both the transform's values and its invertibility.
void check_large_n(FftExecutor& ex, std::uint64_t n, double bin_tol,
                   double round_tol) {
  const auto input = random_signal(n, n ^ 0x9e3779b97f4a7c15ULL);
  auto data = input;
  ex.forward(data);
  util::Xoshiro256 rng(n);
  const double scale = std::sqrt(static_cast<double>(n));
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t k = rng.next_below(n);
    const cplx want = dft_bin(std::span<const cplx>(input), k);
    EXPECT_LT(std::abs(data[k] - want) / scale, bin_tol)
        << "n=" << n << " k=" << k;
  }
  ex.inverse(data);
  EXPECT_LT(max_abs_error(data, input), round_tol) << "n=" << n;
}

template <typename T>
void check_phased_transform_misses_only_when_cold() {
  // A single N = 100000 transform on 2 workers runs phased (digit
  // reversal, then one phase per stage) over its one mixed-radix entry:
  // one miss cold, none over warm forward + inverse repeats, one team.
  FftExecutor ex({.workers = 2});
  std::vector<cplx_t<T>> data(100000, cplx_t<T>(1, 0));
  const std::span<cplx_t<T>> span(data);
  ex.forward(span);
  EXPECT_EQ(ex.stats().cache.misses, 1u);
  for (int round = 0; round < 2; ++round) {
    ex.forward(span);
    ex.inverse(span);
  }
  const ExecutorStats s = ex.stats();
  EXPECT_EQ(s.cache.misses, 1u);
  EXPECT_EQ(s.teams_created, 1u);
  EXPECT_EQ(s.mixed_radix, 5u);
}

TEST(MixedRadixExecutor, PhasedTransformMissesOnlyWhenCold) {
  check_phased_transform_misses_only_when_cold<double>();
  check_phased_transform_misses_only_when_cold<float>();
}

TEST(MixedRadixExecutor, LargeSmoothMillion) {
  FftExecutor ex({.workers = 4});
  check_large_n(ex, 1000000, 1e-9, 1e-9);
  const ExecutorStats st = ex.stats();
  EXPECT_EQ(st.mixed_radix, 2u);  // forward + inverse
}

TEST(Bluestein, LargePrime46349) {
  FftExecutor ex({.workers = 4});
  check_large_n(ex, 46349, 1e-9, 1e-9);
  const ExecutorStats st = ex.stats();
  EXPECT_EQ(st.bluestein, 2u);
}

TEST(MixedRadixExecutor, LargeSmoothMillionF32) {
  FftExecutor ex({.workers = 4});
  const std::uint64_t n = 1000000;
  const auto input = random_signal32(n, 42);
  auto data = input;
  ex.forward(data);
  util::Xoshiro256 rng(n);
  const double scale = std::sqrt(static_cast<double>(n));
  std::vector<cplx> wide(input.size());
  for (std::uint64_t j = 0; j < n; ++j)
    wide[j] = cplx(input[j].real(), input[j].imag());
  for (int i = 0; i < 8; ++i) {
    const std::uint64_t k = rng.next_below(n);
    const cplx want = dft_bin(std::span<const cplx>(wide), k);
    const cplx got(data[k].real(), data[k].imag());
    // f32 forward error grows ~sqrt(log N) * eps * ||x||; normalize by
    // sqrt(N) (the rms bin magnitude of unit-variance input).
    EXPECT_LT(std::abs(got - want) / scale, 1e-4) << "k=" << k;
  }
  ex.inverse(data);
  EXPECT_LT(max_abs_error(std::span<const cplx32>(data),
                          std::span<const cplx32>(input)),
            1e-3);
}

// ---------------------------------------------------------------------------
// pow2 unchanged: composite routing must not perturb pow2 dispatch
// ---------------------------------------------------------------------------

TEST(MixedRadixExecutor, Pow2StillRoutesClassic) {
  FftExecutor ex({.workers = 2});
  auto data = random_signal(1ULL << 10, 9);
  auto want = data;
  fft_serial_inplace(want);
  ex.forward(data);
  EXPECT_EQ(0, std::memcmp(data.data(), want.data(), data.size() * sizeof(cplx)));
  const ExecutorStats st = ex.stats();
  EXPECT_EQ(st.mixed_radix, 0u);
  EXPECT_EQ(st.bluestein, 0u);
}

// ---------------------------------------------------------------------------
// circular convolution at composite length (exact-N plan, satellite)
// ---------------------------------------------------------------------------

TEST(MixedRadixApi, CircularConvolveCompositeLengthExact) {
  for (std::uint64_t n : {12ULL, 60ULL, 101ULL}) {
    const auto a = random_signal(n, 11 * n);
    const auto b = random_signal(n, 13 * n);
    std::vector<cplx> want(n, cplx{0.0, 0.0});
    for (std::uint64_t i = 0; i < n; ++i)
      for (std::uint64_t j = 0; j < n; ++j) want[(i + j) % n] += a[i] * b[j];
    const auto got = circular_convolve(a, b);
    EXPECT_LT(rel_l2_error(std::span<const cplx>(got), want), 1e-12) << n;
  }
}

}  // namespace
}  // namespace c64fft::fft
