// The precision-generic core's contract: the f32 path is a first-class
// citizen of every route (round trip + vs the f64 reference, classic and
// hierarchical), the two widths are bit-independent
// (interleaving f64 work never changes an f32 result), the plan cache
// keys entries by Precision (distinct entries, LRU accounting, and the
// wrong-width twiddle accessor throws), and a precision switch never
// respawns the persistent worker team.

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <stdexcept>
#include <vector>

#include "executor_test_peer.hpp"
#include "fft/api.hpp"
#include "fft/executor.hpp"
#include "fft/fft2d.hpp"
#include "fft/real_fft.hpp"
#include "paper/reference.hpp"
#include "util/prng.hpp"
#include "util/ulp.hpp"

namespace c64fft::fft {
namespace {

constexpr double kF32RelL2Tol = 2e-6;
// The hierarchical decomposition adds the fused twiddle-transpose's extra
// rounding per element per pass; a forward+inverse pair crosses it twice.
constexpr double kF32HierarchicalRelL2Tol = 1e-5;

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

TEST(Precision, F32MatchesReference) {
  const std::uint64_t n = 1ULL << 12;
  const auto input = random_signal32(n, 31);
  auto want = widen(input);
  fft_serial_inplace(want);
  FftExecutor ex;
  HostFftOptions opts;
  opts.workers = 3;
  auto got = input;
  ex.forward(std::span<cplx32>(got), opts);
  EXPECT_LT(rel_l2_error(got, want), kF32RelL2Tol);
}

TEST(Precision, F32RoundTrip) {
  const std::uint64_t n = 1ULL << 11;
  const auto input = random_signal32(n, 47);
  const auto want = widen(input);
  FftExecutor ex;
  HostFftOptions opts;
  opts.workers = 2;
  auto data = input;
  ex.forward(std::span<cplx32>(data), opts);
  ex.inverse(std::span<cplx32>(data), opts);
  EXPECT_LT(rel_l2_error(data, want), kF32RelL2Tol);
}

TEST(Precision, F32HierarchicalRoundTripAndReference) {
  // 2^12 forced onto the hierarchical pipeline through the test peer.
  FftExecutor ex;
  const std::uint64_t n = 1ULL << 12;
  const auto input = random_signal32(n, 53);
  auto want = widen(input);
  fft_serial_inplace(want);

  auto got = input;
  FftExecutorTestPeer::run<float>(ex, std::span<cplx32>(got),
                                  kHierarchicalRoute,
                                  TwiddleDirection::kForward);
  EXPECT_GE(ex.stats().hierarchical, 1u);
  EXPECT_LT(rel_l2_error(got, want), kF32HierarchicalRelL2Tol);

  FftExecutorTestPeer::run<float>(ex, std::span<cplx32>(got),
                                  kHierarchicalRoute,
                                  TwiddleDirection::kInverse);
  EXPECT_LT(rel_l2_error(got, widen(input)), kF32HierarchicalRelL2Tol);
}

TEST(Precision, F32ResultsBitIndependentOfF64Interleaving) {
  // Computing the same f32 transform before, between, and after f64 work
  // must give bit-identical spectra: the widths share the team and cache
  // but never each other's numeric state.
  const std::uint64_t n = 1ULL << 10;
  const auto input32 = random_signal32(n, 61);
  util::Xoshiro256 rng(62);
  std::vector<cplx> input64(n);
  for (auto& x : input64)
    x = cplx(rng.next_double() * 2 - 1, rng.next_double() * 2 - 1);

  FftExecutor ex;
  HostFftOptions opts;
  opts.workers = 2;
  auto alone = input32;
  ex.forward(std::span<cplx32>(alone), opts);

  auto mixed = input32;
  auto d = input64;
  ex.forward(std::span<cplx>(d), opts);
  ex.forward(std::span<cplx32>(mixed), opts);
  ex.inverse(std::span<cplx>(d), opts);
  EXPECT_EQ(max_abs_error(mixed, alone), 0.0);

  // And the f64 side is equally undisturbed by f32 traffic.
  auto d2 = input64;
  FftExecutor fresh;
  fresh.forward(std::span<cplx>(d2), opts);
  auto d3 = input64;
  auto warm32 = input32;
  FftExecutor interleaved;
  interleaved.forward(std::span<cplx32>(warm32), opts);
  interleaved.forward(std::span<cplx>(d3), opts);
  EXPECT_EQ(max_abs_error(d3, d2), 0.0);
}

TEST(Precision, F32BatchMatchesLoopBitExactly) {
  const std::uint64_t n = 1ULL << 10;
  const std::size_t batch_size = 4;
  HostFftOptions opts;
  opts.workers = 4;
  std::vector<std::vector<cplx32>> loop_bufs, batch_bufs;
  for (std::size_t b = 0; b < batch_size; ++b) {
    loop_bufs.push_back(random_signal32(n, 500 + b));
    batch_bufs.push_back(loop_bufs.back());
  }
  FftExecutor ex;
  for (auto& buf : loop_bufs) ex.forward(std::span<cplx32>(buf), opts);
  std::vector<std::span<cplx32>> spans;
  for (auto& buf : batch_bufs) spans.emplace_back(buf);
  ex.forward_batch(spans, opts);
  for (std::size_t b = 0; b < batch_size; ++b)
    EXPECT_EQ(max_abs_error(batch_bufs[b], loop_bufs[b]), 0.0) << b;
}

TEST(Precision, MixedPrecisionPlanCacheKeepsDistinctEntries) {
  FftExecutor ex;
  HostFftOptions opts;
  opts.workers = 2;
  auto f64 = std::vector<cplx>(256);
  auto f32 = random_signal32(256, 3);
  for (auto& x : f64) x = cplx(1.0, -1.0);

  ex.forward(std::span<cplx>(f64), opts);   // miss: f64 entry
  ex.forward(std::span<cplx32>(f32), opts); // miss: same n, NEW f32 entry
  auto s = ex.stats();
  EXPECT_EQ(s.cache.misses, 2u);
  EXPECT_EQ(s.cache.hits, 0u);

  ex.forward(std::span<cplx>(f64), opts);   // hit each existing entry
  ex.forward(std::span<cplx32>(f32), opts);
  s = ex.stats();
  EXPECT_EQ(s.cache.misses, 2u);
  EXPECT_EQ(s.cache.hits, 2u);

  // One persistent team serves both widths: the precision switches above
  // must not have respawned it.
  EXPECT_EQ(s.teams_created, 1u);
}

TEST(Precision, LruAccountingCountsPrecisionKeysSeparately) {
  ExecutorOptions eopts;
  eopts.capacity = 2;
  FftExecutor ex(eopts);
  HostFftOptions opts;
  opts.workers = 1;

  std::vector<cplx> a64(256, cplx(1, 0)), b64(512, cplx(1, 0));
  auto a32 = random_signal32(256, 9);

  ex.forward(std::span<cplx>(a64), opts);    // miss: {256/f64}
  ex.forward(std::span<cplx32>(a32), opts);  // miss: {256/f32, 256/f64}
  ex.forward(std::span<cplx>(b64), opts);    // miss, evicts LRU 256/f64
  auto s = ex.stats();
  EXPECT_EQ(s.cache.misses, 3u);
  EXPECT_EQ(s.cache.evictions, 1u);

  ex.forward(std::span<cplx32>(a32), opts);  // still cached: hit
  a64.assign(256, cplx(1, 0));
  ex.forward(std::span<cplx>(a64), opts);    // evicted above: miss again
  s = ex.stats();
  EXPECT_EQ(s.cache.hits, 1u);
  EXPECT_EQ(s.cache.misses, 4u);
  EXPECT_EQ(s.cache.evictions, 2u);
}

TEST(Precision, PlanEntryRejectsWrongWidthTwiddleAccessor) {
  PlanCache cache(4);
  PlanKey k32{1024, PlanKind::kClassic, Precision::kF32};
  auto e32 = cache.acquire(k32);
  EXPECT_EQ(e32->precision(), Precision::kF32);
  EXPECT_EQ(e32->level_twiddles<float>(TwiddleDirection::kForward).re.size(),
            1024u);
  EXPECT_THROW(e32->level_twiddles<double>(TwiddleDirection::kForward),
               std::logic_error);
  EXPECT_THROW(e32->level_twiddles<double>(TwiddleDirection::kInverse),
               std::logic_error);

  PlanKey k64{1024, PlanKind::kClassic, Precision::kF64};
  auto e64 = cache.acquire(k64);
  EXPECT_NE(e32.get(), e64.get());
  EXPECT_EQ(e64->precision(), Precision::kF64);
  EXPECT_EQ(e64->level_twiddles<double>(TwiddleDirection::kForward).re.size(),
            1024u);
  EXPECT_THROW(e64->level_twiddles<float>(TwiddleDirection::kForward),
               std::logic_error);

  // The other kinds' tables: one template each, fenced the same way, and
  // a table of another kind is refused too.
  auto m32 = cache.acquire(PlanKey{96, PlanKind::kMixedRadix, Precision::kF32});
  EXPECT_EQ(m32->mixed_twiddles<float>(TwiddleDirection::kInverse).size(), 95u);
  EXPECT_THROW(m32->mixed_twiddles<double>(TwiddleDirection::kForward),
               std::logic_error);
  EXPECT_THROW(m32->level_twiddles<float>(TwiddleDirection::kForward),
               std::logic_error);
  auto b64 = cache.acquire(PlanKey{101, PlanKind::kBluestein, Precision::kF64});
  EXPECT_EQ(b64->chirp<double>(TwiddleDirection::kInverse).size(), 101u);
  EXPECT_EQ(b64->chirp_fft<double>(TwiddleDirection::kForward).size(), 256u);
  EXPECT_THROW(b64->chirp<float>(TwiddleDirection::kForward), std::logic_error);
  EXPECT_THROW(b64->chirp_fft<float>(TwiddleDirection::kInverse),
               std::logic_error);
  EXPECT_THROW(b64->mixed_twiddles<double>(TwiddleDirection::kForward),
               std::logic_error);
  // Its pinned convolution is a classic entry at the same precision,
  // fenced the same way.
  const PlanEntry& conv = *b64->conv_entry();
  EXPECT_EQ(conv.precision(), Precision::kF64);
  EXPECT_EQ(conv.level_twiddles<double>(TwiddleDirection::kInverse).re.size(),
            256u);
  EXPECT_THROW(conv.level_twiddles<float>(TwiddleDirection::kForward),
               std::logic_error);
  EXPECT_THROW(conv.chirp_fft<double>(TwiddleDirection::kForward),
               std::logic_error);
}

TEST(Precision, F32TwiddlesAreNarrowedF64Twiddles) {
  // The f32 planes must be the correctly rounded f64 planes, slot by slot
  // (trig evaluated in double once, narrowed per element) — not a float
  // re-derivation with its own error.
  const PlanEntry e64(PlanKey{512, PlanKind::kClassic, Precision::kF64});
  const PlanEntry e32(PlanKey{512, PlanKind::kClassic, Precision::kF32});
  for (const TwiddleDirection dir :
       {TwiddleDirection::kForward, TwiddleDirection::kInverse}) {
    const LevelTwiddles<double> t64 = e64.level_twiddles<double>(dir);
    const LevelTwiddles<float> t32 = e32.level_twiddles<float>(dir);
    ASSERT_EQ(t64.re.size(), t32.re.size());
    for (std::size_t i = 1; i < t64.re.size(); ++i) {
      EXPECT_EQ(t32.re[i], static_cast<float>(t64.re[i])) << i;
      EXPECT_EQ(t32.im[i], static_cast<float>(t64.im[i])) << i;
    }
  }
}

TEST(Precision, ApiCopyAndRealAnd2dF32Paths) {
  // Round trip of a copy through the api wrappers.
  const auto input = random_signal32(1024, 71);
  auto back = input;
  forward(std::span<cplx32>(back));
  inverse(std::span<cplx32>(back));
  EXPECT_LT(rel_l2_error(back, widen(input)), kF32RelL2Tol);

  // Real packing trick at f32: round trip a real signal.
  util::Xoshiro256 rng(72);
  std::vector<float> sig(2048);
  for (auto& x : sig) x = static_cast<float>(rng.next_double() * 2 - 1);
  const auto half = real_forward(std::span<const float>(sig.data(), sig.size()));
  EXPECT_EQ(half.size(), sig.size() / 2 + 1);
  const auto rec = real_inverse(std::span<const cplx32>(half.data(), half.size()));
  ASSERT_EQ(rec.size(), sig.size());
  double worst = 0;
  for (std::size_t i = 0; i < sig.size(); ++i)
    worst = std::max(worst, std::abs(static_cast<double>(rec[i]) - sig[i]));
  EXPECT_LT(worst, 1e-5);

  // 2-D separable path (rectangular shape exercises the out-of-place
  // transpose pair).
  const std::uint64_t rows = 32, cols = 64;
  auto img = random_signal32(rows * cols, 73);
  const auto orig = widen(img);
  forward_2d(std::span<cplx32>(img), rows, cols);
  inverse_2d(std::span<cplx32>(img), rows, cols);
  EXPECT_LT(rel_l2_error(img, orig), kF32RelL2Tol);
}

TEST(Precision, ElementBytesOfPrecision) {
  EXPECT_EQ(element_bytes(Precision::kF32), 8u);
  EXPECT_EQ(element_bytes(Precision::kF64), 16u);
  EXPECT_EQ(precision_of<float>, Precision::kF32);
  EXPECT_EQ(precision_of<double>, Precision::kF64);
  EXPECT_EQ(to_string(Precision::kF32), "f32");
  EXPECT_EQ(to_string(Precision::kF64), "f64");
}

}  // namespace
}  // namespace c64fft::fft
