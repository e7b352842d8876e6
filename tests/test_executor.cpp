// FftExecutor: the cached-plan / persistent-team layer. These tests pin
// down the amortization contract (steady state spawns no worker teams, no
// trig is recomputed), the batch semantics (bit-identical to a loop of
// single calls), the conjugated-twiddle inverse path, LRU cache
// accounting, shutdown/re-create, and concurrent callers (run under TSan
// via C64FFT_TSAN).

#include "fft/executor.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <climits>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <thread>
#include <vector>

#include "codelet/team.hpp"
#include "executor_test_peer.hpp"
#include "fft/api.hpp"
#include "fft/mixed_radix.hpp"
#include "fft/reference.hpp"
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

/// random_signal narrowed to precision T.
template <typename T>
std::vector<std::complex<T>> random_signal_as(std::uint64_t n,
                                              std::uint64_t seed) {
  std::vector<std::complex<T>> v;
  for (const cplx& x : random_signal(n, seed))
    v.emplace_back(static_cast<T>(x.real()), static_cast<T>(x.imag()));
  return v;
}

TEST(Executor, ForwardMatchesSerialReference) {
  FftExecutor ex;
  for (std::uint64_t n : {std::uint64_t{64}, std::uint64_t{1} << 12}) {
    auto data = random_signal(n, n);
    auto want = data;
    fft_serial_inplace(want);
    HostFftOptions opts;
    opts.workers = 2;
    ex.forward(data, opts);
    ASSERT_LT(max_abs_error(data, want), 1e-8) << n;
  }
}

TEST(Executor, InverseBitIdenticalToConjugateForwardPath) {
  // The conjugated-twiddle inverse must reproduce the classic
  // conj -> forward -> conj * 1/N path exactly (every rounding in the
  // butterflies is sign-symmetric).
  const std::uint64_t n = 1ULL << 12;
  const auto input = random_signal(n, 7);
  HostFftOptions opts;
  opts.workers = 3;

  FftExecutor ex;
  auto got = input;
  ex.inverse(got, opts);

  auto want = input;
  for (auto& v : want) v = std::conj(v);
  ex.forward(want, opts);
  const double inv = 1.0 / static_cast<double>(n);
  for (auto& v : want) v = std::conj(v) * inv;

  ASSERT_EQ(max_abs_error(got, want), 0.0);
}

TEST(Executor, RoundTripRestoresInput) {
  FftExecutor ex;
  const std::uint64_t n = 1ULL << 11;
  const auto input = random_signal(n, 42);
  auto data = input;
  HostFftOptions opts;
  opts.workers = 4;
  ex.forward(data, opts);
  ex.inverse(data, opts);
  ASSERT_LT(max_abs_error(data, input), 1e-9);
}

/// One batch-contract case: `batch` transforms of length `n` at one
/// precision and direction on the executor `ex`, run both as one batch
/// and as a loop of single calls, each memcmp'd against a loop of single
/// calls on the one-worker `ref`. Every call is a routed public call, or,
/// given a `route`, the test peer's forced dispatch. Returns the phases
/// and codelets the batch ran, observed through the phase hook.
template <typename T>
std::pair<std::uint64_t, std::uint64_t> check_batch_against_loop(
    FftExecutor& ref, FftExecutor& ex, std::uint64_t n, std::size_t batch,
    bool inverse, const std::optional<FftExecutorTestPeer::Route>& route,
    const std::string& label) {
  std::vector<std::vector<std::complex<T>>> loop_bufs, batch_bufs;
  for (std::size_t b = 0; b < batch; ++b)
    loop_bufs.push_back(random_signal_as<T>(n, 1000 * n + b));
  batch_bufs = loop_bufs;
  auto single_bufs = loop_bufs;
  const TwiddleDirection dir =
      inverse ? TwiddleDirection::kInverse : TwiddleDirection::kForward;
  const auto run_one = [&](FftExecutor& e, std::vector<std::complex<T>>& buf) {
    if (route)
      FftExecutorTestPeer::run<T>(e, std::span<std::complex<T>>(buf), *route,
                                  dir);
    else if (inverse)
      e.inverse(std::span<std::complex<T>>(buf));
    else
      e.forward(std::span<std::complex<T>>(buf));
  };
  for (auto& buf : loop_bufs) run_one(ref, buf);
  for (auto& buf : single_bufs) run_one(ex, buf);

  std::uint64_t phases = 0, codelets = 0;
  ex.set_phase_hook([&](const codelet::PhaseStats& ps) {
    ++phases;
    codelets += ps.executed;
  });
  std::vector<std::span<std::complex<T>>> spans(batch_bufs.begin(),
                                                batch_bufs.end());
  if (route)
    FftExecutorTestPeer::run<T>(
        ex, std::span<const std::span<std::complex<T>>>(spans), *route, dir);
  else if (inverse)
    ex.inverse_batch(spans);
  else
    ex.forward_batch(spans);
  ex.set_phase_hook({});

  for (std::size_t b = 0; b < batch; ++b) {
    EXPECT_EQ(0, std::memcmp(loop_bufs[b].data(), batch_bufs[b].data(),
                             n * sizeof(std::complex<T>)))
        << label << " batch b=" << b;
    EXPECT_EQ(0, std::memcmp(loop_bufs[b].data(), single_bufs[b].data(),
                             n * sizeof(std::complex<T>)))
        << label << " single b=" << b;
  }
  return {phases, codelets};
}

TEST(Executor, BatchContractMatchesLoopOnEveryRoute) {
  // The batch contract over every route: forward_batch/inverse_batch are
  // byte-identical per transform to a loop of single calls on a one-worker
  // executor, at every team size, batch size (one included), precision and
  // direction. A batch runs exactly ONE phase of exactly B whole-transform
  // codelets on every team, one worker included — a single pow2 or
  // Bluestein transform too. Two shapes differ: a single mixed-radix
  // transform on a multi-worker team runs its digit-reversal phase plus
  // one phase per stage, and N = 257 over a hierarchical M = 1024
  // convolution (forced through the test peer; the executor routes that
  // only from N = 65537) runs the two phases of its tile pipeline twice
  // per transform.
  struct Case {
    std::uint64_t n;
    std::optional<FftExecutorTestPeer::Route> route;
    bool mixed_radix;
  };
  const Case cases[] = {
      {std::uint64_t{1} << 7, std::nullopt, false},
      {std::uint64_t{1} << 13, std::nullopt, false},
      {96, std::nullopt, true},
      {360, std::nullopt, true},   // with a radix-5 stage
      {101, std::nullopt, false},  // Bluestein
      {257,
       FftExecutorTestPeer::Route{PlanKind::kBluestein,
                                  PlanKind::kHierarchical},
       false},
  };
  for (const Case& c : cases) {
    FftExecutor ref({.workers = 1});
    for (unsigned workers = 1; workers <= 4; ++workers) {
      FftExecutor ex({.workers = workers});
      for (const std::size_t batch : {1u, 2u, 3u, 8u}) {
        for (const bool inverse : {false, true}) {
          for (const bool f32 : {false, true}) {
            const std::string label =
                "n=" + std::to_string(c.n) +
                " workers=" + std::to_string(workers) +
                " B=" + std::to_string(batch) +
                (inverse ? " inverse" : " forward") + (f32 ? " f32" : " f64");
            const auto [phases, codelets] =
                f32 ? check_batch_against_loop<float>(ref, ex, c.n, batch,
                                                      inverse, c.route, label)
                    : check_batch_against_loop<double>(ref, ex, c.n, batch,
                                                       inverse, c.route, label);
            if (c.route) {
              // Two M-point pipeline phases (B1 column blocks, then B2 row
              // blocks) per convolution FFT, two FFTs per transform, on
              // every team.
              const HierarchicalSplit split =
                  hierarchical_split(bluestein_fft_size(c.n));
              const HierarchicalGrain g = hierarchical_grain(
                  split.n1, split.n2, workers, f32 ? 8 : 16,
                  util::cache_info().l2_bytes);
              EXPECT_EQ(phases, 4u * batch) << label;
              EXPECT_EQ(codelets, 2u * batch * (g.blocks1 + g.blocks2))
                  << label;
              continue;
            }
            if (c.mixed_radix && batch == 1 && workers > 1) {
              EXPECT_EQ(phases, 1u + MixedRadixPlan(c.n).stage_count())
                  << label;
              continue;
            }
            EXPECT_EQ(phases, 1u) << label;
            EXPECT_EQ(codelets, batch) << label;
          }
        }
      }
    }
  }
}

/// Option-less single and batched calls at pow2 n: bytes equal to the
/// public fft::forward / fft::inverse, both directions.
template <typename T>
void expect_optionless_matches_api(FftExecutor& ex, std::uint64_t n) {
  const auto input = random_signal_as<T>(n, 31 * n);
  for (const bool inverse : {false, true}) {
    auto want = input, single = input, batched = input;
    const std::span<std::complex<T>> one[1] = {batched};
    if (inverse) {
      fft::inverse(std::span<std::complex<T>>(want));
      ex.inverse(std::span<std::complex<T>>(single));
      ex.inverse_batch(one);
    } else {
      fft::forward(std::span<std::complex<T>>(want));
      ex.forward(std::span<std::complex<T>>(single));
      ex.forward_batch(one);
    }
    const std::size_t bytes = n * sizeof(std::complex<T>);
    const std::string label = "n=" + std::to_string(n) +
                              (inverse ? " inverse" : " forward") +
                              (sizeof(T) == 4 ? " f32" : " f64");
    EXPECT_EQ(0, std::memcmp(want.data(), single.data(), bytes)) << label;
    EXPECT_EQ(0, std::memcmp(want.data(), batched.data(), bytes)) << label;
  }
}

TEST(Executor, OptionlessCallsAcceptPow2SizesBelow64) {
  // Regression: the option-less overloads used to validate a default
  // radix of 64 strictly, so every pow2 N < 64 threw "size must be at
  // least the radix". Production takes no radix now.
  FftExecutor ex;
  for (const std::uint64_t n : {2u, 4u, 8u, 16u, 32u}) {
    expect_optionless_matches_api<double>(ex, n);
    expect_optionless_matches_api<float>(ex, n);
  }
}

TEST(Executor, BatchRejectsMixedLengths) {
  FftExecutor ex;
  std::vector<cplx> a(256), b(512);
  std::span<cplx> spans[2] = {a, b};
  EXPECT_THROW(ex.forward_batch(spans, HostFftOptions{}), std::invalid_argument);
}

TEST(Executor, ConcurrentCallersComputeCorrectTransforms) {
  // Several caller threads share one executor (and its single team); the
  // phase mutex must serialize them with no data races (run under TSan).
  FftExecutor ex;
  constexpr int kThreads = 4;
  constexpr int kIters = 8;
  std::vector<std::thread> threads;
  std::vector<double> errors(kThreads, 0.0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Distinct sizes per thread also exercise concurrent cache misses.
      const std::uint64_t n = std::uint64_t{256} << (t % 3);
      HostFftOptions opts;
      opts.workers = 2;
      for (int i = 0; i < kIters; ++i) {
        auto data = random_signal(n, t * 100 + i);
        auto want = data;
        fft_serial_inplace(want);
        ex.forward(data, opts);
        errors[t] = std::max(errors[t], max_abs_error(data, want));
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t) EXPECT_LT(errors[t], 1e-8) << t;
}

TEST(Executor, CacheHitMissAndLruEvictionAccounting) {
  ExecutorOptions eopts;
  eopts.capacity = 2;
  FftExecutor ex(eopts);
  HostFftOptions opts;
  opts.workers = 1;

  auto a = random_signal(256, 1), b = random_signal(512, 2), c = random_signal(1024, 3);
  ex.forward(a, opts);  // miss: {A}
  ex.forward(a, opts);  // hit
  ex.forward(b, opts);  // miss: {B, A}
  ex.forward(c, opts);  // miss, evicts LRU = A: {C, B}
  auto s = ex.stats();
  EXPECT_EQ(s.cache.hits, 1u);
  EXPECT_EQ(s.cache.misses, 3u);
  EXPECT_EQ(s.cache.evictions, 1u);

  ex.forward(a, opts);  // A was evicted: miss again, evicts B
  s = ex.stats();
  EXPECT_EQ(s.cache.misses, 4u);
  EXPECT_EQ(s.cache.evictions, 2u);
  EXPECT_EQ(s.transforms, 5u);
}

TEST(Executor, ShutdownThenRecreate) {
  FftExecutor ex;
  HostFftOptions opts;
  opts.workers = 2;
  auto data = random_signal(1024, 5);
  auto want = data;
  fft_serial_inplace(want);

  auto first = data;
  ex.forward(first, opts);
  EXPECT_EQ(ex.stats().teams_created, 1u);

  ex.shutdown();  // joins the team; the plan cache survives
  auto second = data;
  ex.forward(second, opts);
  EXPECT_EQ(ex.stats().teams_created, 2u);
  EXPECT_EQ(ex.stats().cache.misses, 1u);  // no rebuild after shutdown
  ASSERT_EQ(max_abs_error(second, first), 0.0);
  ASSERT_LT(max_abs_error(second, want), 1e-8);
}

TEST(Executor, SteadyStateSpawnsNoTeams) {
  // Regression guard for the tentpole claim: 1000 steady-state forward()
  // calls must not create a single new worker team (the old code spawned
  // two per call — one in fft_host, one in the bit-reversal).
  FftExecutor ex;
  HostFftOptions opts;
  opts.workers = 2;
  auto data = random_signal(1ULL << 10, 11);
  ex.forward(data, opts);  // warm: plan cached, team spawned
  const std::uint64_t before = codelet::Team::teams_created();
  for (int i = 0; i < 1000; ++i) ex.forward(data, opts);
  EXPECT_EQ(codelet::Team::teams_created(), before);
}

TEST(Executor, PublicApiLoopCreatesAtMostOneTeam) {
  // Same guard through the api.cpp wrappers / the process-wide default
  // executor: a 1000-iteration forward() loop may lazily create at most
  // one team in total.
  auto data = random_signal(1ULL << 10, 13);
  const std::uint64_t before = codelet::Team::teams_created();
  for (int i = 0; i < 1000; ++i) forward(data);
  EXPECT_LE(codelet::Team::teams_created() - before, 1u);
}

TEST(Executor, ResizeChangesDefaultTeam) {
  FftExecutor ex;
  auto data = random_signal(512, 17);
  ex.forward(data);  // default ExecutorOptions team (4 workers)
  EXPECT_EQ(ex.stats().teams_created, 1u);
  ex.resize(2);
  ex.forward(data);
  EXPECT_EQ(ex.stats().teams_created, 2u);
  ex.forward(data);  // steady again
  EXPECT_EQ(ex.stats().teams_created, 2u);
}

TEST(Executor, OptionlessCallsDoNotRaceResize) {
  // The option-less overloads read the default team size under the
  // executor lock, the same lock resize() writes it under (TSan checks
  // this case: see scripts/check.sh).
  FftExecutor ex;
  const auto input = random_signal(256, 19);
  auto want = input;
  fft_serial_inplace(want);
  std::atomic<bool> stop{false};
  std::thread resizer([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      ex.resize(1);
      ex.resize(2);
    }
  });
  for (int i = 0; i < 50; ++i) {
    auto got = input;
    ex.forward(got);
    EXPECT_LT(max_abs_error(got, want), 1e-8) << i;
  }
  stop.store(true, std::memory_order_relaxed);
  resizer.join();
}

TEST(PlanCache, SharedEntriesSurviveEviction) {
  PlanCache cache(1);
  auto a = cache.acquire(PlanKey{1024});
  auto a2 = cache.acquire(PlanKey{1024});
  EXPECT_EQ(a.get(), a2.get());  // one immutable entry, shared
  auto b = cache.acquire(PlanKey{2048});  // evicts a
  EXPECT_EQ(cache.size(), 1u);
  // The evicted entry stays valid for holders — eviction only drops the
  // cache's reference.
  EXPECT_EQ(a->key().n, 1024u);
  EXPECT_EQ(a->twiddles(TwiddleDirection::kForward).fft_size(), 1024u);
  EXPECT_EQ(b->twiddles(TwiddleDirection::kForward).fft_size(), 2048u);
}

TEST(PlanCache, BadShapesAreNotCached) {
  PlanCache cache(4);
  EXPECT_THROW(cache.acquire(PlanKey{100}),
               std::invalid_argument);  // a classic key must be pow2
  EXPECT_EQ(cache.size(), 0u);
}

TEST(Executor, EnvOverridesSnapshotAtConstructionOnly) {
  // C64FFT_WORKERS is the executor's one env variable, read exactly once,
  // when the executor is constructed; later environment mutations are
  // invisible (resize() is the way to change the team).
  ::setenv("C64FFT_WORKERS", "3", 1);
  FftExecutor ex;
  EXPECT_EQ(ex.default_workers(), 3u);

  ::setenv("C64FFT_WORKERS", "2", 1);
  auto warm = random_signal(1ULL << 6, 1);
  ex.forward(warm);  // warm up: team spawned, plan cached
  EXPECT_EQ(ex.default_workers(), 3u);
  EXPECT_EQ(ex.stats().teams_created, 1u);
  ex.resize(2);
  EXPECT_EQ(ex.default_workers(), 2u);

  // Malformed, empty, zero or out-of-range values leave the option
  // untouched.
  for (const char* bad : {"banana", "3x", "", "0", "-1", "257", "4294967295"}) {
    ::setenv("C64FFT_WORKERS", bad, 1);
    FftExecutor defaults({.workers = 2});
    EXPECT_EQ(defaults.default_workers(), 2u) << "'" << bad << "'";
  }
  ::unsetenv("C64FFT_WORKERS");
}

TEST(Executor, TeamSizeAboveTheCapIsRejected) {
  // Only sizes that get rejected are constructed here: each throws before
  // any thread starts.
  for (const unsigned bad : {codelet::Team::kMaxWorkers + 1, UINT_MAX}) {
    EXPECT_THROW(FftExecutor({.workers = bad}), std::invalid_argument) << bad;
    FftExecutor ex({.workers = 2});
    EXPECT_THROW(ex.resize(bad), std::invalid_argument) << bad;
    EXPECT_EQ(ex.default_workers(), 2u);

    // A per-call size above the cap throws from the call and leaves the
    // executor usable, its team included.
    auto data = random_signal(256, 23);
    auto want = data;
    ex.forward(std::span<cplx>(want));
    auto probe = data;
    EXPECT_THROW(ex.forward(probe, HostFftOptions{bad}), std::invalid_argument)
        << bad;
    EXPECT_THROW(forward(std::span<cplx>(probe), HostFftOptions{bad}),
                 std::invalid_argument)
        << bad;
    ex.forward(std::span<cplx>(data));
    EXPECT_EQ(0, std::memcmp(data.data(), want.data(), 256 * sizeof(cplx)));
    EXPECT_EQ(ex.stats().teams_created, 1u);
  }
}

/// One direction of one batch of the serve_small mix on `ex`: B
/// transforms of length n at precision T, with the phases and codelets
/// the call ran.
template <typename T>
std::pair<std::uint64_t, std::uint64_t> serve_batch(FftExecutor& ex,
                                                    std::uint64_t n,
                                                    std::size_t batch,
                                                    bool inverse) {
  std::vector<std::vector<std::complex<T>>> bufs;
  for (std::size_t b = 0; b < batch; ++b)
    bufs.push_back(random_signal_as<T>(n, 7 * n + b));
  std::vector<std::span<std::complex<T>>> spans(bufs.begin(), bufs.end());
  std::uint64_t phases = 0, codelets = 0;
  ex.set_phase_hook([&](const codelet::PhaseStats& ps) {
    ++phases;
    codelets += ps.executed;
  });
  if (inverse)
    ex.inverse_batch(spans);
  else
    ex.forward_batch(spans);
  ex.set_phase_hook({});
  return {phases, codelets};
}

TEST(Executor, ServeSmallMixRunsOnePhasePerBatch) {
  // The schedule of the serve_small benchmark mix, gated by counts instead
  // of timing: (N, precision) = (64, f64), (96, f64), (101, f32) and
  // (128, f32) in batches of 8, both directions, on a 2-worker executor.
  // That is 0.125 phases and 1.00 codelets per transform, and 5 plan-cache
  // misses: the four sizes plus 101's M = 256 convolution key.
  constexpr std::size_t kBatch = 8;
  FftExecutor ex({.workers = 2});
  const auto pass = [&] {
    for (const bool inverse : {false, true}) {
      for (const auto& [phases, codelets] :
           {serve_batch<double>(ex, 64, kBatch, inverse),
            serve_batch<double>(ex, 96, kBatch, inverse),
            serve_batch<float>(ex, 101, kBatch, inverse),
            serve_batch<float>(ex, 128, kBatch, inverse)}) {
        EXPECT_EQ(phases, 1u);
        EXPECT_EQ(codelets, kBatch);
      }
    }
  };
  pass();  // cold
  EXPECT_EQ(ex.stats().cache.misses, 5u);
  for (int round = 0; round < 3; ++round) pass();
  const ExecutorStats s = ex.stats();
  EXPECT_EQ(s.cache.misses, 5u);
  EXPECT_EQ(s.teams_created, 1u);
  EXPECT_EQ(s.batched, 4u * 2u * 4u * kBatch);
}

}  // namespace
}  // namespace c64fft::fft
