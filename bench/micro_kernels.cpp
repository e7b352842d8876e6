// google-benchmark microbenchmarks of the host-side computational kernels:
// the paper harness's scalar butterfly chain and codelet, bit reversal,
// twiddle construction, the worker team's per-phase cost, and end-to-end
// host FFTs. These measure real wall time on the build machine
// (unlike the fig*/table* binaries, which measure simulated C64 cycles).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <span>
#include <vector>

#include "codelet/team.hpp"
#include "fft/api.hpp"
#include "fft/executor.hpp"
#include "fft/kernel.hpp"
#include "fft/kernels/dispatch.hpp"
#include "fft/plan_cache.hpp"
#include "fft/real_fft.hpp"
#include "paper/bit_reversal.hpp"
#include "paper/codelet_kernel.hpp"
#include "paper/reference.hpp"
#include "paper/transpose.hpp"
#include "util/aligned_buffer.hpp"
#include "util/cpu_features.hpp"
#include "util/prng.hpp"

namespace {

using namespace c64fft;
using fft::cplx;
using fft::cplx32;

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

// ---------------------------------------------------------------------------
// The paper harness's scalar std::complex kernels.

void BM_ButterflyChain64(benchmark::State& state) {
  const std::uint64_t n = 1 << 12;
  const fft::TwiddleTable tw(n, fft::TwiddleLayout::kLinear);
  auto chain = random_signal(64, 1);
  for (auto _ : state) {
    fft::butterfly_chain(chain, 0, 1, 0, 6, 12, tw);
    benchmark::DoNotOptimize(chain.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 192);  // butterflies
}
BENCHMARK(BM_ButterflyChain64);

void BM_RunCodeletScalar(benchmark::State& state) {
  const std::uint64_t n = 1 << 15;
  const unsigned r = static_cast<unsigned>(state.range(0));
  const fft::FftPlan plan(n, r);
  const fft::TwiddleTable tw(n, fft::TwiddleLayout::kLinear);
  auto data = random_signal(n, 2);
  std::vector<cplx> scratch(plan.radix());
  std::uint64_t task = 0;
  for (auto _ : state) {
    fft::run_codelet_scalar(plan, 0, task, data, tw, scratch);
    task = (task + 1) % plan.tasks_per_stage();
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(plan.radix()));
}
BENCHMARK(BM_RunCodeletScalar)->Arg(3)->Arg(6);

// ---------------------------------------------------------------------------
// Supporting kernels.

void BM_BitReversal(benchmark::State& state) {
  auto data = random_signal(std::uint64_t{1} << state.range(0), 3);
  for (auto _ : state) {
    fft::bit_reverse_permute(data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_BitReversal)->Arg(12)->Arg(16)->Arg(20);

void BM_TwiddleTableBuild(benchmark::State& state) {
  const std::uint64_t n = std::uint64_t{1} << state.range(0);
  const auto layout = state.range(1) ? fft::TwiddleLayout::kBitReversed
                                     : fft::TwiddleLayout::kLinear;
  for (auto _ : state) {
    fft::TwiddleTable tw(n, layout);
    benchmark::DoNotOptimize(tw.storage().data());
  }
}
BENCHMARK(BM_TwiddleTableBuild)->Args({16, 0})->Args({16, 1})->Args({20, 0});

// ---------------------------------------------------------------------------
// One phase of the worker team: an empty-body parallel_for of `count`
// indices on a persistent team of `workers`, so the wake, claim and
// completion wait are all that is timed. Count 1 is the cost a single
// transform's phase pays; count 64 a full serving batch.

void BM_TeamPhase(benchmark::State& state) {
  codelet::Team team(static_cast<unsigned>(state.range(0)));
  const auto count = static_cast<std::uint64_t>(state.range(1));
  for (auto _ : state)
    team.parallel_for("bench", count, [](std::uint64_t i, unsigned) {
      benchmark::DoNotOptimize(i);
    });
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(count));
}
BENCHMARK(BM_TeamPhase)
    ->ArgNames({"workers", "count"})
    ->Args({1, 1})->Args({2, 1})->Args({4, 1})
    ->Args({1, 64})->Args({2, 64})->Args({4, 64})
    ->UseRealTime()->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// End-to-end transforms.

void BM_HostFftFine(benchmark::State& state) {
  auto data = random_signal(std::uint64_t{1} << state.range(0), 4);
  fft::HostFftOptions opts;
  opts.workers = static_cast<unsigned>(state.range(1));
  for (auto _ : state) {
    fft::forward(data, opts);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_HostFftFine)->Args({14, 1})->Args({14, 2})->Args({16, 2});

void BM_RealFft(benchmark::State& state) {
  const std::uint64_t n = std::uint64_t{1} << state.range(0);
  util::Xoshiro256 rng(8);
  std::vector<double> signal(n);
  for (auto& x : signal) x = rng.next_double() * 2 - 1;
  fft::HostFftOptions opts;
  opts.workers = 2;
  for (auto _ : state) {
    auto spec = fft::real_forward(signal, opts);
    benchmark::DoNotOptimize(spec.data());
  }
}
BENCHMARK(BM_RealFft)->Arg(14)->Arg(16);

void BM_SerialReferenceFft(benchmark::State& state) {
  auto data = random_signal(std::uint64_t{1} << state.range(0), 6);
  for (auto _ : state) {
    fft::fft_serial_inplace(data);
    benchmark::DoNotOptimize(data.data());
  }
}
BENCHMARK(BM_SerialReferenceFft)->Arg(14)->Arg(16);

// ---------------------------------------------------------------------------
// Executor: cached-plan steady state vs the cold per-call setup path, and
// batched dispatch vs a loop of cached single transforms.

// The pre-executor cost model: every call pays plan construction, the
// O(N) trig twiddle build, and a worker-team spawn + join. A fresh
// executor per iteration reproduces that (conservatively: the old code
// spawned TWO teams per call — one for the bit-reversal, one in
// fft_host — so this proxy understates the pre-executor cost).
//
// Arg = transform size N. Setup amortization dominates at small/medium
// N; at large N on this single-core benchmarking VM the cached path is
// already >90% pure butterfly compute, so the ratio narrows there.
void BM_ExecutorForwardCold(benchmark::State& state) {
  auto data = random_signal(static_cast<std::uint64_t>(state.range(0)), 9);
  fft::HostFftOptions opts;
  opts.workers = 4;
  for (auto _ : state) {
    fft::FftExecutor ex;
    ex.forward(data, opts);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
// Thread spawn/join cost is long-tailed; a larger MinTime keeps the
// mean stable enough for the 30% bench_check gate.
BENCHMARK(BM_ExecutorForwardCold)
    ->Arg(256)
    ->Arg(4096)
    ->MinTime(0.5)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_ExecutorForwardCached(benchmark::State& state) {
  auto data = random_signal(static_cast<std::uint64_t>(state.range(0)), 9);
  fft::HostFftOptions opts;
  opts.workers = 4;
  fft::FftExecutor ex;
  ex.forward(data, opts);  // warm: plan + twiddles cached, team resident
  for (auto _ : state) {
    ex.forward(data, opts);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_ExecutorForwardCached)
    ->Arg(256)
    ->Arg(4096)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// The f32 path at the same sizes, same warm-cache protocol: half the
// element width means twice the butterflies per cache line and half the
// twiddle-table bytes, so at cache-resident N the cached f32 transform
// runs ~1.5x faster than the f64 row above (compare
// BM_ExecutorForwardCachedF32/4096 with BM_ExecutorForwardCached/4096).
void BM_ExecutorForwardCachedF32(benchmark::State& state) {
  auto data = random_signal32(static_cast<std::uint64_t>(state.range(0)), 9);
  fft::HostFftOptions opts;
  opts.workers = 4;
  fft::FftExecutor ex;
  ex.forward(std::span<cplx32>(data), opts);  // warm: f32 plan entry + team
  for (auto _ : state) {
    ex.forward(std::span<cplx32>(data), opts);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_ExecutorForwardCachedF32)
    ->Arg(256)
    ->Arg(4096)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// SIMD kernel-dispatch pair: the same cached-forward protocol as the
// rows above, but with the kernel table pinned — Simd rows run the best
// table cpuid supports (what a fresh process dispatches to), Scalar rows
// force the scalar oracle table. The spread between a Simd row and its
// Scalar twin is the explicit-SIMD payoff with every other cost (plan
// cache, twiddles, team) identical; the opt-in bench gate requires the
// f32 pair at N=4096 to stay >= 1.3x apart (tools/CMakeLists.txt ratio
// args). The forced ISA is restored to the env resolution after the
// timing loop so later benchmarks see the default dispatch.
template <typename Complex>
void executor_cached_isa_bench(benchmark::State& state, util::IsaLevel level,
                               std::vector<Complex> data) {
  fft::HostFftOptions opts;
  // One worker, unlike the rows above: the pair isolates the kernel-table
  // spread, and phase-barrier overhead at workers > num_cpus would bury
  // the butterfly time it exists to compare.
  opts.workers = 1;
  fft::kernels::set_kernel_isa(level);
  fft::FftExecutor ex;
  ex.forward(std::span<Complex>(data), opts);  // warm: plan + team resident
  for (auto _ : state) {
    ex.forward(std::span<Complex>(data), opts);
    benchmark::DoNotOptimize(data.data());
  }
  fft::kernels::reset_kernel_isa_from_env();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}

void BM_ExecutorForwardCachedSimdF32(benchmark::State& state) {
  executor_cached_isa_bench(
      state, util::best_supported_isa(),
      random_signal32(static_cast<std::uint64_t>(state.range(0)), 9));
}
BENCHMARK(BM_ExecutorForwardCachedSimdF32)
    ->Arg(4096)->UseRealTime()->Unit(benchmark::kMicrosecond);

void BM_ExecutorForwardCachedScalarF32(benchmark::State& state) {
  executor_cached_isa_bench(
      state, util::IsaLevel::kScalar,
      random_signal32(static_cast<std::uint64_t>(state.range(0)), 9));
}
BENCHMARK(BM_ExecutorForwardCachedScalarF32)
    ->Arg(4096)->UseRealTime()->Unit(benchmark::kMicrosecond);

void BM_ExecutorForwardCachedSimdF64(benchmark::State& state) {
  executor_cached_isa_bench(
      state, util::best_supported_isa(),
      random_signal(static_cast<std::uint64_t>(state.range(0)), 9));
}
BENCHMARK(BM_ExecutorForwardCachedSimdF64)
    ->Arg(4096)->UseRealTime()->Unit(benchmark::kMicrosecond);

void BM_ExecutorForwardCachedScalarF64(benchmark::State& state) {
  executor_cached_isa_bench(
      state, util::IsaLevel::kScalar,
      random_signal(static_cast<std::uint64_t>(state.range(0)), 9));
}
BENCHMARK(BM_ExecutorForwardCachedScalarF64)
    ->Arg(4096)->UseRealTime()->Unit(benchmark::kMicrosecond);

// f32 batched dispatch, mirroring BM_ExecutorBatchSubmit: the batch
// machinery (one phase of whole-transform codelets per batch) is
// precision-independent, so the f32 row should show the same
// batch-vs-loop shape at half the per-transform bandwidth.
void BM_ExecutorBatchSubmitF32(benchmark::State& state) {
  std::vector<std::vector<cplx32>> bufs;
  bufs.reserve(256);
  for (std::size_t b = 0; b < 256; ++b)
    bufs.push_back(random_signal32(static_cast<std::uint64_t>(state.range(0)), 100 + b));
  std::vector<std::span<cplx32>> spans;
  spans.reserve(bufs.size());
  for (auto& buf : bufs) spans.emplace_back(buf);
  fft::HostFftOptions opts;
  opts.workers = 4;
  fft::FftExecutor ex;
  ex.forward(std::span<cplx32>(bufs[0]), opts);  // warm
  for (auto _ : state) {
    ex.forward_batch(spans, opts);
    benchmark::DoNotOptimize(bufs.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(bufs.size()));
}
BENCHMARK(BM_ExecutorBatchSubmitF32)
    ->Arg(256)
    ->Arg(1024)
    ->MinTime(0.25)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// Batched dispatch: one forward_batch submission vs a loop of cached
// single calls over the same buffers. Arg = per-transform size N, with
// a fixed batch of 256 transforms. The batch path runs ONE phase with
// one whole-transform codelet per transform (one split-complex sweep on
// the claiming worker's scratch), replacing the loop's two phases per
// transform with one phase for the whole batch.
constexpr std::size_t kBatchCount = 256;

std::vector<std::vector<cplx>> batch_signals(std::uint64_t n) {
  std::vector<std::vector<cplx>> bufs;
  bufs.reserve(kBatchCount);
  for (std::size_t b = 0; b < kBatchCount; ++b)
    bufs.push_back(random_signal(n, 100 + b));
  return bufs;
}

void BM_ExecutorBatchLoop(benchmark::State& state) {
  auto bufs = batch_signals(static_cast<std::uint64_t>(state.range(0)));
  fft::HostFftOptions opts;
  opts.workers = 4;
  fft::FftExecutor ex;
  ex.forward(bufs[0], opts);  // warm
  for (auto _ : state) {
    for (auto& buf : bufs) ex.forward(buf, opts);
    benchmark::DoNotOptimize(bufs.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kBatchCount);
}
BENCHMARK(BM_ExecutorBatchLoop)
    ->Arg(256)
    ->Arg(1024)
    ->MinTime(0.25)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_ExecutorBatchSubmit(benchmark::State& state) {
  auto bufs = batch_signals(static_cast<std::uint64_t>(state.range(0)));
  std::vector<std::span<cplx>> spans;
  spans.reserve(bufs.size());
  for (auto& buf : bufs) spans.emplace_back(buf);
  fft::HostFftOptions opts;
  opts.workers = 4;
  fft::FftExecutor ex;
  ex.forward(bufs[0], opts);  // warm
  for (auto _ : state) {
    ex.forward_batch(spans, opts);
    benchmark::DoNotOptimize(bufs.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kBatchCount);
}
BENCHMARK(BM_ExecutorBatchSubmit)
    ->Arg(256)
    ->Arg(1024)
    ->MinTime(0.25)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

// ---------------------------------------------------------------------------
// Transpose kernels: the naive element loop streams one array and strides
// the other by a power of two — the strided stream folds onto a handful
// of cache sets (see fft_lint --cache-sets) and every line is evicted
// before its neighbors are touched. The blocked kernels are what fft2d
// uses, and the hierarchical pipeline's tile tasks run the same tile
// kernel. Arg = log2 of the square matrix edge.

void BM_TransposeNaive(benchmark::State& state) {
  const std::uint64_t edge = std::uint64_t{1} << state.range(0);
  const auto src = random_signal(edge * edge, 11);
  std::vector<cplx> dst(src.size());
  for (auto _ : state) {
    for (std::uint64_t r = 0; r < edge; ++r)
      for (std::uint64_t c = 0; c < edge; ++c)
        dst[c * edge + r] = src[r * edge + c];
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(2 * src.size() * sizeof(cplx)));
}
BENCHMARK(BM_TransposeNaive)->Arg(8)->Arg(9)->Arg(10);

void BM_TransposeBlocked(benchmark::State& state) {
  const std::uint64_t edge = std::uint64_t{1} << state.range(0);
  const auto src = random_signal(edge * edge, 11);
  std::vector<cplx> dst(src.size());
  for (auto _ : state) {
    fft::transpose_blocked(src, dst, edge, edge);
    benchmark::DoNotOptimize(dst.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(2 * src.size() * sizeof(cplx)));
}
BENCHMARK(BM_TransposeBlocked)->Arg(8)->Arg(9)->Arg(10);

void BM_TransposeInplaceSquare(benchmark::State& state) {
  const std::uint64_t edge = std::uint64_t{1} << state.range(0);
  auto data = random_signal(edge * edge, 12);
  for (auto _ : state) {
    fft::transpose_inplace_square(data, edge);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(2 * data.size() * sizeof(cplx)));
}
BENCHMARK(BM_TransposeInplaceSquare)->Arg(8)->Arg(9)->Arg(10);

// ---------------------------------------------------------------------------
// Classic vs hierarchical at large N: the pair behind the executor's
// routing threshold (kHierarchicalThresholdLog2), the RATIO2 gate
// (tools/CMakeLists.txt) and DESIGN.md §3.7's speedup table. The classic
// row times the executor's serial body — one run_transform_split sweep
// over a classic plan entry's twiddle planes and bit-reversal table, on
// split-complex scratch — at sizes routing sends down the pipeline from
// 2^18; the hierarchical row is a warmed executor's routed call.
// Arg = log2 N.

void BM_ClassicFftLargeN(benchmark::State& state) {
  auto data = random_signal(std::uint64_t{1} << state.range(0), 14);
  fft::PlanCache cache(1);
  const auto entry = cache.acquire(fft::PlanKey{data.size()});
  const fft::LevelTwiddles<double> tw =
      entry->level_twiddles<double>(fft::TwiddleDirection::kForward);
  util::AlignedBuffer<double> split(2 * data.size());
  fft::run_transform_split(data, tw, entry->bitrev(), split.data());  // warm
  for (auto _ : state) {
    fft::run_transform_split(data, tw, entry->bitrev(), split.data());
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_ClassicFftLargeN)
    ->Arg(14)->Arg(16)->Arg(18)->Arg(20)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

// Hierarchical pipelined path, the only large-N route: /18 and /19 sit at
// the routing threshold, /20 is the denominator of the 1.25x
// classic-vs-hierarchical ratio gate (RATIO2 in tools/CMakeLists.txt
// bench_check). Warmed like the classic row above, on a 2-worker team.
void BM_HierarchicalFftLargeN(benchmark::State& state) {
  auto data = random_signal(std::uint64_t{1} << state.range(0), 14);
  fft::ExecutorOptions eo;
  eo.workers = 2;
  fft::FftExecutor ex(eo);
  fft::HostFftOptions opts;
  opts.workers = 2;
  ex.forward(data, opts);  // warm: sub-plans + both scratch matrices
  for (auto _ : state) {
    ex.forward(data, opts);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_HierarchicalFftLargeN)
    ->Arg(18)->Arg(19)->Arg(20)->Arg(22)->Arg(24)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Arbitrary-N routing payoff: the factorization-driven mixed-radix path at
// N = 1,000,000 (stages [8,8,5,5,5,5,5,5] from 2^6 * 5^6) against what the
// pow2-only core forced before the refactor — zero-pad to the next power
// of two (2^20) and transform that. The padded row pays its O(N) pad
// copy every iteration: the copy is part of the workaround's cost, and
// it still buys only an approximation (padding changes the spectrum;
// recovering exact bins needs a chirp-z pass on top, not charged here).
// Same warmed-executor protocol and worker count as the LargeN rows; the
// opt-in bench gate (RATIO3 in tools/CMakeLists.txt) pins exact-N as
// faster than the padded transform.
constexpr std::uint64_t kMillionN = 1000000;

void BM_MixedRadixFft1M(benchmark::State& state) {
  auto data = random_signal(kMillionN, 15);
  fft::HostFftOptions opts;
  opts.workers = 2;
  fft::FftExecutor ex;
  ex.forward(data, opts);  // warm: factorization plan + flat twiddles
  for (auto _ : state) {
    ex.forward(data, opts);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kMillionN));
}
BENCHMARK(BM_MixedRadixFft1M)->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_PaddedPow2Fft1M(benchmark::State& state) {
  constexpr std::uint64_t kPadded = std::uint64_t{1} << 20;
  const auto signal = random_signal(kMillionN, 15);
  std::vector<cplx> padded(kPadded);
  fft::HostFftOptions opts;
  opts.workers = 2;
  fft::FftExecutor ex;
  std::copy(signal.begin(), signal.end(), padded.begin());
  ex.forward(padded, opts);  // warm: pow2 plan for 2^20 resident
  for (auto _ : state) {
    std::copy(signal.begin(), signal.end(), padded.begin());
    std::fill(padded.begin() + static_cast<std::ptrdiff_t>(kMillionN),
              padded.end(), cplx{});
    ex.forward(padded, opts);
    benchmark::DoNotOptimize(padded.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kMillionN));
}
BENCHMARK(BM_PaddedPow2Fft1M)->UseRealTime()->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
