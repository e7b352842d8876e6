#include "fft/kernel.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <vector>

#include "fft/bit_reversal.hpp"
#include "fft/reference.hpp"
#include "fft/transpose.hpp"
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
  KernelScratch scratch(plan.radix());
  bit_reverse_permute(data);
  for (std::uint32_t s = 0; s < plan.stage_count(); ++s)
    for (std::uint64_t i = 0; i < plan.tasks_per_stage(); ++i)
      run_codelet(plan, s, i, data, tw, scratch);
  ASSERT_LT(max_abs_error(data, want), 1e-9)
      << "n=" << n << " r=" << radix_log2;
}

// The vectorized split-complex kernel must be bit-identical to the scalar
// std::complex reference: same butterflies, same twiddles, same operation
// order — only the data layout differs.
void check_split_matches_scalar(std::uint64_t n, unsigned radix_log2,
                                TwiddleLayout layout) {
  auto a = random_signal(n, n ^ 0xFEED);
  auto b = a;
  const FftPlan plan(n, radix_log2);
  const TwiddleTable tw(n, layout);
  KernelScratch scratch(plan.radix());
  std::vector<cplx> scalar_scratch(plan.radix());
  bit_reverse_permute(a);
  bit_reverse_permute(b);
  for (std::uint32_t s = 0; s < plan.stage_count(); ++s)
    for (std::uint64_t i = 0; i < plan.tasks_per_stage(); ++i) {
      run_codelet(plan, s, i, a, tw, scratch);
      run_codelet_scalar(plan, s, i, b, tw, scalar_scratch);
    }
  ASSERT_EQ(max_abs_error(a, b), 0.0) << "n=" << n << " r=" << radix_log2;
}

// The fused bit-reversal + stage-0 sweep must be bit-identical to
// bit-reversing the data and then running every stage-0 codelet — it is
// the same butterflies in the same order, only the permutation is folded
// into the gather.
void check_stage0_bitrev_fused(std::uint64_t n, unsigned radix_log2) {
  auto fused = random_signal(n, n ^ 0xB17E);
  auto ref = fused;
  const FftPlan plan(n, radix_log2);
  const TwiddleTable tw(n, TwiddleLayout::kLinear);
  KernelScratch scratch(plan.radix());

  bit_reverse_permute(ref);
  for (std::uint64_t i = 0; i < plan.tasks_per_stage(); ++i)
    run_codelet(plan, 0, i, ref, tw, scratch);

  std::vector<std::uint32_t> brev(n);
  for (std::uint64_t i = 0; i < n; ++i)
    brev[i] = static_cast<std::uint32_t>(util::bit_reverse(i, plan.log2_size()));
  std::vector<double> split(2 * n);
  run_stage0_bitrev(plan, fused, tw, brev, split.data(), split.data() + n,
                    scratch);
  ASSERT_EQ(max_abs_error(fused, ref), 0.0) << "n=" << n << " r=" << radix_log2;
}

TEST(Kernel, Stage0BitrevFusedMatchesUnfused) {
  check_stage0_bitrev_fused(1ULL << 12, 6);
  check_stage0_bitrev_fused(1ULL << 9, 6);   // partial last stage
  check_stage0_bitrev_fused(1ULL << 10, 3);
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

TEST(Kernel, VectorizedMatchesScalarBitExactly) {
  check_split_matches_scalar(1ULL << 12, 6, TwiddleLayout::kLinear);
  check_split_matches_scalar(1ULL << 13, 6, TwiddleLayout::kLinear);   // partial last
  check_split_matches_scalar(1ULL << 15, 6, TwiddleLayout::kLinear);
  check_split_matches_scalar(1ULL << 12, 6, TwiddleLayout::kBitReversed);
  check_split_matches_scalar(1ULL << 9, 3, TwiddleLayout::kLinear);
  check_split_matches_scalar(64, 1, TwiddleLayout::kLinear);
}

TEST(Kernel, SingleTaskWholeTransform) {
  // N == R: one codelet is the whole FFT.
  const std::uint64_t n = 64;
  auto data = random_signal(n, 3);
  auto want = data;
  fft_serial_inplace(want);
  const FftPlan plan(n, 6);
  const TwiddleTable tw(n, TwiddleLayout::kLinear);
  KernelScratch scratch(plan.radix());
  bit_reverse_permute(data);
  run_codelet(plan, 0, 0, data, tw, scratch);
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
  KernelScratch scratch(plan.radix());
  bit_reverse_permute(a);
  bit_reverse_permute(b);
  for (std::uint32_t s = 0; s < plan.stage_count(); ++s) {
    for (std::uint64_t i = 0; i < plan.tasks_per_stage(); ++i)
      run_codelet(plan, s, i, a, tw, scratch);
    for (std::uint64_t i = plan.tasks_per_stage(); i-- > 0;)
      run_codelet(plan, s, i, b, tw, scratch);
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
// Every supported ISA level must produce (a) results bit-identical to the
// scalar table — the wide kernels execute one butterfly per lane in the
// scalar operation order, with FMA contraction disabled — and (b) results
// within the documented peak-ULP envelope of the f64 serial reference.
// The sweep covers both precisions and every N in 2^4..2^12, crossing
// every chain shape the codelet algebra produces at radix 64 (single
// whole-transform task, full stages, 1..5-level partial last stages).

/// Restores the process-default kernel ISA (and scrubs C64FFT_ISA) no
/// matter how a test exits, so ISA forcing never leaks across tests.
struct IsaGuard {
  ~IsaGuard() {
    unsetenv("C64FFT_ISA");
    kernels::reset_kernel_isa_from_env();
  }
};

constexpr double kF32SweepUlpTol = 24.0;  // matches test_ulp's pipeline tol
constexpr double kF64SweepUlpTol = 64.0;  // two f64 orderings vs each other

template <typename T>
std::vector<cplx_t<T>> codelet_transform(util::IsaLevel isa,
                                         const std::vector<cplx_t<T>>& input,
                                         unsigned radix_log2) {
  kernels::set_kernel_isa(isa);
  std::vector<cplx_t<T>> data = input;
  const FftPlan plan(data.size(), radix_log2);
  const BasicTwiddleTable<T> tw(data.size(), TwiddleLayout::kLinear);
  BasicKernelScratch<T> scratch(plan.radix());
  bit_reverse_permute(std::span<cplx_t<T>>(data));
  for (std::uint32_t s = 0; s < plan.stage_count(); ++s)
    for (std::uint64_t i = 0; i < plan.tasks_per_stage(); ++i)
      run_codelet(plan, s, i, std::span<cplx_t<T>>(data), tw, scratch);
  return data;
}

template <typename T>
void check_dispatch_matrix() {
  IsaGuard guard;
  util::Xoshiro256 rng(0x15A);
  for (unsigned logn = 4; logn <= 12; ++logn) {
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

    const unsigned radix_log2 = std::min(6u, logn);
    const std::vector<cplx_t<T>> scalar =
        codelet_transform<T>(util::IsaLevel::kScalar, input, radix_log2);
    const double tol =
        std::is_same_v<T, float> ? kF32SweepUlpTol : kF64SweepUlpTol;
    EXPECT_LT(util::max_ulp_error<T>(scalar, want), tol)
        << "scalar n=" << n;

    for (const util::IsaLevel isa :
         {util::IsaLevel::kAvx2, util::IsaLevel::kAvx512}) {
      if (!util::isa_supported(isa)) continue;
      const std::vector<cplx_t<T>> wide =
          codelet_transform<T>(isa, input, radix_log2);
      ASSERT_EQ(kernels::active_kernel_isa(), isa);
      for (std::uint64_t i = 0; i < n; ++i) {
        ASSERT_EQ(wide[i].real(), scalar[i].real())
            << "isa=" << util::to_string(isa) << " n=" << n << " i=" << i;
        ASSERT_EQ(wide[i].imag(), scalar[i].imag())
            << "isa=" << util::to_string(isa) << " n=" << n << " i=" << i;
      }
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
  for (const util::IsaLevel isa :
       {util::IsaLevel::kAvx2, util::IsaLevel::kAvx512}) {
    if (!util::isa_supported(isa)) continue;
    kernels::set_kernel_isa(isa);
    std::vector<cplx> got_t(rows * cols);
    transpose_blocked(matrix, got_t, rows, cols);
    ASSERT_EQ(max_abs_error(got_t, want_t), 0.0) << util::to_string(isa);
  }
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
      codelet_transform<double>(util::IsaLevel::kScalar, input, 6);
  unsetenv("C64FFT_ISA");
  kernels::reset_kernel_isa_from_env();
  const std::vector<cplx> scalar =
      codelet_transform<double>(util::IsaLevel::kScalar, input, 6);
  ASSERT_EQ(max_abs_error(forced, scalar), 0.0);
}

TEST(KernelDispatch, EnvRequestsAboveSupportClampDown) {
  IsaGuard guard;
  setenv("C64FFT_ISA", "avx512", 1);
  kernels::reset_kernel_isa_from_env();
  EXPECT_LE(static_cast<int>(kernels::active_kernel_isa()),
            static_cast<int>(util::best_supported_isa()));
}

TEST(ButterflyChain, SplitMatchesComplexOnGenericChain) {
  // Exercise butterfly_chain_split directly, including a base/stride
  // combination where the twiddle progression wraps mod 2^L (c >= stride),
  // forcing the per-element fallback path.
  const std::uint64_t n = 1 << 10;
  const TwiddleTable tw(n, TwiddleLayout::kLinear);
  for (const auto& [base, stride] : std::vector<std::pair<std::uint64_t, std::uint64_t>>{
           {0, 1}, {64, 1}, {3, 4}, {192, 8}, {7, 2}}) {
    const std::uint32_t levels = 5;
    const std::uint64_t len = 1u << levels;
    auto chain = random_signal(len, base * 131 + stride);
    std::vector<double> re(len), im(len), twr(len / 2), twi(len / 2);
    for (std::uint64_t q = 0; q < len; ++q) {
      re[q] = chain[q].real();
      im[q] = chain[q].imag();
    }
    butterfly_chain(chain, base, stride, 3, levels, 10, tw);
    butterfly_chain_split(re.data(), im.data(), len, base, stride, 3, levels, 10,
                          tw, twr.data(), twi.data());
    for (std::uint64_t q = 0; q < len; ++q) {
      EXPECT_EQ(re[q], chain[q].real()) << "base=" << base << " q=" << q;
      EXPECT_EQ(im[q], chain[q].imag()) << "base=" << base << " q=" << q;
    }
  }
}

}  // namespace
}  // namespace c64fft::fft
