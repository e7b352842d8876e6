#include "fft/kernel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "fft/kernels/dispatch.hpp"
#include "fft/mixed_radix.hpp"
#include "fft/plan_cache.hpp"
#include "fft/transpose.hpp"
#include "paper/bit_reversal.hpp"
#include "paper/codelet_kernel.hpp"
#include "paper/reference.hpp"
#include "util/bit_ops.hpp"
#include "util/cpu_features.hpp"
#include "util/prng.hpp"
#include "util/ulp.hpp"

namespace c64fft::fft {
namespace {

std::vector<cplx> random_signal(std::uint64_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<cplx> v(n);
  for (auto& x : v) x = cplx(rng.next_double() * 2 - 1, rng.next_double() * 2 - 1);
  return v;
}

// Running every stage's codelets serially in natural order must equal the
// serial FFT — this validates gather/butterfly/twiddle/scatter in one go.
void check_stagewise(std::uint64_t n, unsigned radix_log2, TwiddleLayout layout) {
  auto data = random_signal(n, n ^ 0xABCD);
  auto want = data;
  fft_serial_inplace(want);

  const FftPlan plan(n, radix_log2);
  const TwiddleTable tw(n, layout);
  std::vector<cplx> scratch(plan.radix());
  bit_reverse_permute(data);
  for (std::uint32_t s = 0; s < plan.stage_count(); ++s)
    for (std::uint64_t i = 0; i < plan.tasks_per_stage(); ++i)
      run_codelet_scalar(plan, s, i, data, tw, scratch);
  ASSERT_LT(max_abs_error(data, want), 1e-9)
      << "n=" << n << " r=" << radix_log2;
}

// Bit-reversal followed by every stage of the scalar std::complex
// codelets: the stage-by-stage oracle of the whole-transform sweep.
template <typename T>
std::vector<cplx_t<T>> stagewise_scalar(std::vector<cplx_t<T>> data,
                                        const BasicTwiddleTable<T>& tw,
                                        unsigned radix_log2) {
  const FftPlan plan(data.size(),
                     std::min(radix_log2, util::ilog2(data.size())));
  std::vector<cplx_t<T>> scratch(plan.radix());
  bit_reverse_permute(std::span<cplx_t<T>>(data));
  for (std::uint32_t s = 0; s < plan.stage_count(); ++s)
    for (std::uint64_t i = 0; i < plan.tasks_per_stage(); ++i)
      run_codelet_scalar(plan, s, i, std::span<cplx_t<T>>(data), tw, scratch);
  return data;
}

/// Restores the process-default kernel ISA (and scrubs C64FFT_ISA) no
/// matter how a test exits, so ISA forcing never leaks across tests.
struct IsaGuard {
  ~IsaGuard() {
    unsetenv("C64FFT_ISA");
    kernels::reset_kernel_isa_from_env();
  }
};

// The whole-transform sweep must be bit-identical to bit-reversal plus
// every stage's scalar codelets at any radix: the same butterflies with
// the same twiddle entries in the same operation order, only grouped into
// one chain. The sweep reads the twiddle planes and bit-reversal table a
// classic plan entry builds, as production does; the oracle's codelets
// read the paper's linear table. Swept over every kernel table the host
// can install and both twiddle directions.
template <typename T>
void check_transform_split_matches_stagewise() {
  IsaGuard guard;
  std::vector<unsigned> logns;
  for (unsigned logn = 1; logn <= 14; ++logn) logns.push_back(logn);
  logns.push_back(17);
  util::Xoshiro256 rng(0x5EEB);
  for (const unsigned logn : logns) {
    const std::uint64_t n = std::uint64_t{1} << logn;
    std::vector<cplx_t<T>> input(n);
    for (cplx_t<T>& v : input)
      v = cplx_t<T>(static_cast<T>(rng.next_double() * 2 - 1),
                    static_cast<T>(rng.next_double() * 2 - 1));
    const PlanEntry entry(PlanKey{n, PlanKind::kClassic, precision_of<T>});
    std::vector<T> split(2 * n);
    for (const TwiddleDirection dir :
         {TwiddleDirection::kForward, TwiddleDirection::kInverse}) {
      const BasicTwiddleTable<T> tw(n, TwiddleLayout::kLinear, dir);
      const LevelTwiddles<T> planes = entry.level_twiddles<T>(dir);
      for (const unsigned radix_log2 : {3u, 6u}) {
        const std::vector<cplx_t<T>> want =
            stagewise_scalar<T>(input, tw, radix_log2);
        for (const util::IsaLevel isa :
             {util::IsaLevel::kScalar, util::IsaLevel::kAvx2}) {
          if (kernels::set_kernel_isa(isa) != isa) continue;
          std::vector<cplx_t<T>> got = input;
          run_transform_split(std::span<cplx_t<T>>(got), planes,
                              entry.bitrev(), split.data());
          ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                n * sizeof(cplx_t<T>)),
                    0)
              << "n=" << n << " r=" << radix_log2
              << " inverse=" << (dir == TwiddleDirection::kInverse)
              << " isa=" << util::to_string(isa);
        }
      }
    }
  }
}

TEST(Kernel, TransformSplitMatchesStagewiseScalar) {
  check_transform_split_matches_stagewise<double>();
  check_transform_split_matches_stagewise<float>();
}

TEST(Kernel, Radix64FullStages) { check_stagewise(1ULL << 12, 6, TwiddleLayout::kLinear); }

TEST(Kernel, Radix64PartialLastStage) {
  check_stagewise(1ULL << 13, 6, TwiddleLayout::kLinear);  // 1-level last stage
  check_stagewise(1ULL << 15, 6, TwiddleLayout::kLinear);  // 3-level last stage
  check_stagewise(1ULL << 17, 6, TwiddleLayout::kLinear);  // 5-level last stage
}

TEST(Kernel, HashedTwiddleLayoutGivesSameNumbers) {
  check_stagewise(1ULL << 12, 6, TwiddleLayout::kBitReversed);
  check_stagewise(1ULL << 15, 6, TwiddleLayout::kBitReversed);
}

TEST(Kernel, SmallerRadices) {
  check_stagewise(1ULL << 8, 3, TwiddleLayout::kLinear);
  check_stagewise(1ULL << 9, 3, TwiddleLayout::kLinear);
  check_stagewise(1ULL << 6, 2, TwiddleLayout::kLinear);
  check_stagewise(64, 1, TwiddleLayout::kLinear);
}

TEST(Kernel, Radix128) { check_stagewise(1ULL << 14, 7, TwiddleLayout::kLinear); }

TEST(Kernel, SingleTaskWholeTransform) {
  // N == R: one codelet is the whole FFT.
  const std::uint64_t n = 64;
  auto data = random_signal(n, 3);
  auto want = data;
  fft_serial_inplace(want);
  const FftPlan plan(n, 6);
  const TwiddleTable tw(n, TwiddleLayout::kLinear);
  std::vector<cplx> scratch(plan.radix());
  bit_reverse_permute(data);
  run_codelet_scalar(plan, 0, 0, data, tw, scratch);
  EXPECT_LT(max_abs_error(data, want), 1e-10);
}

TEST(Kernel, StageOrderWithinStageIsIrrelevant) {
  // Tasks of one stage touch disjoint data: any order gives the same
  // result (the freedom the fine-grain scheduler exploits).
  const std::uint64_t n = 1ULL << 12;
  auto a = random_signal(n, 17);
  auto b = a;
  const FftPlan plan(n, 6);
  const TwiddleTable tw(n, TwiddleLayout::kLinear);
  std::vector<cplx> scratch(plan.radix());
  bit_reverse_permute(a);
  bit_reverse_permute(b);
  for (std::uint32_t s = 0; s < plan.stage_count(); ++s) {
    for (std::uint64_t i = 0; i < plan.tasks_per_stage(); ++i)
      run_codelet_scalar(plan, s, i, a, tw, scratch);
    for (std::uint64_t i = plan.tasks_per_stage(); i-- > 0;)
      run_codelet_scalar(plan, s, i, b, tw, scratch);
  }
  EXPECT_EQ(max_abs_error(a, b), 0.0);  // bit-identical
}

TEST(ButterflyChain, SingleLevelMatchesDirectButterfly) {
  const std::uint64_t n = 16;
  const TwiddleTable tw(n, TwiddleLayout::kLinear);
  // Chain of 2 at base 3, stride 4, level 2 (global): lower element g=3.
  std::vector<cplx> chain{cplx(1, 1), cplx(2, -1)};
  const cplx w = tw.at((3 % 4) << (4 - 2 - 1));
  const cplx t = w * chain[1];
  const cplx want_lo = chain[0] + t;
  const cplx want_hi = chain[0] - t;
  butterfly_chain(chain, 3, 4, 2, 1, 4, tw);
  EXPECT_NEAR(std::abs(chain[0] - want_lo), 0.0, 1e-15);
  EXPECT_NEAR(std::abs(chain[1] - want_hi), 0.0, 1e-15);
}

// ---- Kernel dispatch matrix ----
//
// Every supported ISA level must produce (a) whole-transform sweeps
// bit-identical to the scalar table — the wide kernels execute one
// butterfly per lane in the scalar operation order, with FMA contraction
// disabled — and (b) results within the documented peak-ULP envelope of
// the f64 serial reference. The sweep covers both precisions and every N
// in 2^1..2^12: no fused first pass at 2, radix-4 at 4, radix-8 from 8,
// and twiddle spans below and above the vector width.

constexpr double kF32SweepUlpTol = 24.0;  // matches test_ulp's pipeline tol
constexpr double kF64SweepUlpTol = 64.0;  // two f64 orderings vs each other

template <typename T>
std::vector<cplx_t<T>> sweep_transform(util::IsaLevel isa,
                                       const std::vector<cplx_t<T>>& input) {
  kernels::set_kernel_isa(isa);
  std::vector<cplx_t<T>> data = input;
  const std::uint64_t n = data.size();
  const PlanEntry entry(PlanKey{n, PlanKind::kClassic, precision_of<T>});
  std::vector<T> split(2 * n);
  run_transform_split(std::span<cplx_t<T>>(data),
                      entry.level_twiddles<T>(TwiddleDirection::kForward),
                      entry.bitrev(), split.data());
  return data;
}

template <typename T>
void check_dispatch_matrix() {
  IsaGuard guard;
  util::Xoshiro256 rng(0x15A);
  for (unsigned logn = 1; logn <= 12; ++logn) {
    const std::uint64_t n = std::uint64_t{1} << logn;
    std::vector<cplx_t<T>> input(n);
    for (cplx_t<T>& v : input)
      v = cplx_t<T>(static_cast<T>(rng.next_double() * 2 - 1),
                    static_cast<T>(rng.next_double() * 2 - 1));
    // f64 reference spectrum for the accuracy envelope.
    std::vector<cplx> want(n);
    for (std::uint64_t i = 0; i < n; ++i)
      want[i] = cplx(static_cast<double>(input[i].real()),
                     static_cast<double>(input[i].imag()));
    fft_serial_inplace(want);

    const std::vector<cplx_t<T>> scalar =
        sweep_transform<T>(util::IsaLevel::kScalar, input);
    const double tol =
        std::is_same_v<T, float> ? kF32SweepUlpTol : kF64SweepUlpTol;
    EXPECT_LT(util::max_ulp_error<T>(scalar, want), tol)
        << "scalar n=" << n;

    if (!util::isa_supported(util::IsaLevel::kAvx2)) continue;
    const std::vector<cplx_t<T>> wide =
        sweep_transform<T>(util::IsaLevel::kAvx2, input);
    ASSERT_EQ(kernels::active_kernel_isa(), util::IsaLevel::kAvx2);
    for (std::uint64_t i = 0; i < n; ++i) {
      ASSERT_EQ(wide[i].real(), scalar[i].real()) << "n=" << n << " i=" << i;
      ASSERT_EQ(wide[i].imag(), scalar[i].imag()) << "n=" << n << " i=" << i;
    }
  }
}

TEST(KernelDispatch, MatrixSweepF32BitIdenticalAcrossIsas) {
  check_dispatch_matrix<float>();
}

TEST(KernelDispatch, MatrixSweepF64BitIdenticalAcrossIsas) {
  check_dispatch_matrix<double>();
}

TEST(KernelDispatch, TransposeMatchesScalarPerIsa) {
  // The dispatch table's other entry (transpose_tile) must also be
  // bit-identical across levels.
  IsaGuard guard;
  const std::uint64_t rows = 24, cols = 40;  // ragged: exercises tile edges
  const auto matrix = random_signal(rows * cols, 0x7A2);
  kernels::set_kernel_isa(util::IsaLevel::kScalar);
  std::vector<cplx> want_t(rows * cols);
  transpose_blocked(matrix, want_t, rows, cols);
  if (!util::isa_supported(util::IsaLevel::kAvx2)) return;
  kernels::set_kernel_isa(util::IsaLevel::kAvx2);
  std::vector<cplx> got_t(rows * cols);
  transpose_blocked(matrix, got_t, rows, cols);
  ASSERT_EQ(max_abs_error(got_t, want_t), 0.0);
}

// Each stage runs as mixed_stage_scalar once over all its butterflies and,
// on every kernel table the host can install, as ragged chunks through
// run_mixed_radix_stage (chunk ends fall mid-block and mid-vector, as the
// executor's phased body cuts them). Stage 0 reads a separate buffer, as
// it reads the permuted scratch at run time; later stages run in place.
// Every radix, every L_p residue mod the vector width, both directions,
// both precisions.
template <typename T>
void check_mixed_stage_matches_scalar() {
  IsaGuard guard;
  util::Xoshiro256 rng(0x57A6E);
  std::vector<std::uint64_t> sizes;
  for (std::uint64_t n = 2; n <= 1200; ++n)
    if (factorize(n).smooth) sizes.push_back(n);
  for (const std::uint64_t n : {3888ULL, 16807ULL, 100000ULL, 129600ULL})
    sizes.push_back(n);
  for (const std::uint64_t n : sizes) {
    const MixedRadixPlan plan(n);
    std::vector<cplx_t<T>> input(n);
    for (cplx_t<T>& v : input)
      v = cplx_t<T>(static_cast<T>(rng.next_double() * 2 - 1),
                    static_cast<T>(rng.next_double() * 2 - 1));
    for (const TwiddleDirection dir :
         {TwiddleDirection::kForward, TwiddleDirection::kInverse}) {
      const auto tw = mixed_radix_twiddles<T>(plan, dir);
      const bool inverse = dir == TwiddleDirection::kInverse;
      for (std::uint32_t s = 0; s < plan.stage_count(); ++s) {
        const MixedRadixStage& st = plan.stages()[s];
        const std::uint64_t g_count = n / st.radix;
        std::vector<cplx_t<T>> want(n);
        mixed_stage_scalar<T>(st, tw.data() + st.twiddle_offset,
                              input.data(), want.data(), 0, g_count, inverse);
        for (const util::IsaLevel isa :
             {util::IsaLevel::kScalar, util::IsaLevel::kAvx2}) {
          if (kernels::set_kernel_isa(isa) != isa) continue;
          std::vector<cplx_t<T>> got =
              s == 0 ? std::vector<cplx_t<T>>(n) : input;
          const std::span<const cplx_t<T>> src =
              s == 0 ? std::span<const cplx_t<T>>(input)
                     : std::span<const cplx_t<T>>(got);
          std::uint64_t g = 0;
          while (g < g_count) {
            const std::uint64_t end =
                std::min(g_count, g + 1 + rng.next_below(37));
            run_mixed_radix_stage<T>(plan, s, tw, src, got, g, end, dir);
            g = end;
          }
          ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                n * sizeof(cplx_t<T>)),
                    0)
              << "n=" << n << " stage=" << s << " radix=" << st.radix
              << " inverse=" << inverse << " isa=" << util::to_string(isa);
        }
      }
    }
  }
}

TEST(KernelDispatch, MixedStageMatchesScalarPerIsa) {
  check_mixed_stage_matches_scalar<double>();
  check_mixed_stage_matches_scalar<float>();
}

TEST(KernelDispatch, EnvForcedScalarFallback) {
  // C64FFT_ISA=scalar must drop the process to the portable table (the
  // narrow-only contract), and the forced run must bit-match an explicit
  // scalar run.
  IsaGuard guard;
  setenv("C64FFT_ISA", "scalar", 1);
  kernels::reset_kernel_isa_from_env();
  ASSERT_EQ(kernels::active_kernel_isa(), util::IsaLevel::kScalar);

  const std::uint64_t n = 1ULL << 11;
  auto input = random_signal(n, 0xE57);
  const std::vector<cplx> forced =
      sweep_transform<double>(util::IsaLevel::kScalar, input);
  unsetenv("C64FFT_ISA");
  kernels::reset_kernel_isa_from_env();
  const std::vector<cplx> scalar =
      sweep_transform<double>(util::IsaLevel::kScalar, input);
  ASSERT_EQ(max_abs_error(forced, scalar), 0.0);
}

TEST(KernelDispatch, EnvRequestsAboveSupportClampDown) {
  IsaGuard guard;
  setenv("C64FFT_ISA", "avx2", 1);
  kernels::reset_kernel_isa_from_env();
  EXPECT_LE(static_cast<int>(kernels::active_kernel_isa()),
            static_cast<int>(util::best_supported_isa()));
  // "avx512" names no table: unparsable, so it means auto.
  setenv("C64FFT_ISA", "avx512", 1);
  kernels::reset_kernel_isa_from_env();
  EXPECT_EQ(kernels::active_kernel_isa(), util::best_supported_isa());
}

}  // namespace
}  // namespace c64fft::fft
