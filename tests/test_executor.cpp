// FftExecutor: the cached-plan / persistent-team layer. These tests pin
// down the amortization contract (steady state spawns no worker teams, no
// trig is recomputed), the batch semantics (bit-identical to a loop of
// single calls), the conjugated-twiddle inverse path, LRU cache
// accounting, shutdown/re-create, and concurrent callers (run under TSan
// via C64FFT_TSAN).

#include "fft/executor.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <climits>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <thread>
#include <vector>

#include "codelet/team.hpp"
#include "executor_test_peer.hpp"
#include "fft/api.hpp"
#include "fft/fft2d.hpp"
#include "fft/kernels/dispatch.hpp"
#include "fft/mixed_radix.hpp"
#include "paper/reference.hpp"
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

TEST(Executor, StatsWaitsForNoPhase) {
  // A call holds the executor's lock across all its phases; stats() must
  // not wait for it. The phase hook parks its call inside the call's
  // first phase until a stats() call on this thread has returned, or 2 s
  // pass, and records which came first.
  FftExecutor ex({.workers = 1});
  std::mutex m;
  std::condition_variable cv;
  bool parked = false;
  bool returned = false;
  bool returned_first = false;
  ex.set_phase_hook([&](const codelet::PhaseStats&) {
    std::unique_lock lock(m);
    if (parked) return;
    parked = true;
    cv.notify_all();
    returned_first =
        cv.wait_for(lock, std::chrono::seconds(2), [&] { return returned; });
  });
  auto data = random_signal(256, 11);
  std::thread caller([&] { ex.forward(std::span<cplx>(data)); });
  {
    std::unique_lock lock(m);
    cv.wait(lock, [&] { return parked; });
  }
  const ExecutorStats during = ex.stats();
  {
    std::lock_guard lock(m);
    returned = true;
  }
  cv.notify_all();
  caller.join();
  ex.set_phase_hook({});
  EXPECT_TRUE(returned_first) << "stats() waited for the call's phase";
  // The call counts its transform once its phases are done.
  EXPECT_EQ(during.transforms, 0u);
  EXPECT_EQ(during.teams_created, 1u);
  EXPECT_EQ(ex.stats().transforms, 1u);
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
  EXPECT_EQ(a->level_twiddles<double>(TwiddleDirection::kForward).re.size(),
            1024u);
  EXPECT_EQ(b->level_twiddles<double>(TwiddleDirection::kForward).re.size(),
            2048u);
}

TEST(PlanCache, BadShapesAreNotCached) {
  // A bad key throws before anything is built or cached — a Bluestein
  // key before its convolution is acquired, an oversized one before any
  // table is allocated — and counts no miss.
  PlanCache cache(4);
  EXPECT_THROW(cache.acquire(PlanKey{100}),
               std::invalid_argument);  // a classic key must be pow2
  EXPECT_THROW(cache.acquire(PlanKey{std::uint64_t{1} << 31}),
               std::invalid_argument);  // past the largest sweep
  EXPECT_THROW(
      cache.acquire(PlanKey{std::uint64_t{1} << 61, PlanKind::kHierarchical}),
      std::invalid_argument);
  for (const std::uint64_t n : {std::uint64_t{1}, kMaxBluesteinSize + 1})
    EXPECT_THROW(cache.acquire(PlanKey{n, PlanKind::kBluestein}),
                 std::invalid_argument)
        << n;
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().misses, 0u);  // a miss is an entry built
}

TEST(SizeLimits, EachRouteRejectsTheSizeAfterItsLargest) {
  // The validators at each route's boundary, called on the length alone:
  // no buffer of these sizes is built. Classic sizes end where the
  // hierarchical route begins, so the three limits are the pipeline's
  // (its larger factor is the largest sweep, 2^30 points), MixedRadixPlan's
  // u32 permutation, and Bluestein's M = next_pow2(2N - 1), one sweep at
  // plan build.
  struct Boundary {
    std::uint64_t largest;
    std::uint64_t next;
    PlanKind kind;
  };
  const Boundary bounds[] = {
      {std::uint64_t{1} << 60, std::uint64_t{1} << 61, PlanKind::kHierarchical},
      // The largest 7-smooth composite below 2^32, and the next one.
      {4288306050ULL, 4299816960ULL, PlanKind::kMixedRadix},
      {kMaxBluesteinSize - 1, kMaxBluesteinSize + 1, PlanKind::kBluestein},
  };
  for (const Boundary& b : bounds) {
    EXPECT_EQ(routed_plan_kind(b.largest), b.kind) << b.largest;
    EXPECT_EQ(routed_plan_kind(b.next), b.kind) << b.next;
    EXPECT_TRUE(fft_size_supported(b.largest)) << b.largest;
    EXPECT_NO_THROW(validate_fft_shape(b.largest)) << b.largest;
    EXPECT_FALSE(fft_size_supported(b.next)) << b.next;
    EXPECT_THROW(validate_fft_shape(b.next), std::invalid_argument) << b.next;
  }
  for (const std::uint64_t n : {std::uint64_t{0}, std::uint64_t{1},
                                std::uint64_t{1} << 63, UINT64_MAX}) {
    EXPECT_FALSE(fft_size_supported(n)) << n;
    EXPECT_THROW(validate_fft_shape(n), std::invalid_argument) << n;
  }

  // The route pieces agree: the largest split is two 2^30 sweeps, the
  // largest Bluestein M is 2^30, and neither wraps past its limit.
  EXPECT_EQ(hierarchical_split(std::uint64_t{1} << 60).n1,
            std::uint64_t{1} << 30);
  EXPECT_EQ(hierarchical_split(std::uint64_t{1} << 60).n2,
            std::uint64_t{1} << 30);
  EXPECT_THROW(hierarchical_split(std::uint64_t{1} << 61),
               std::invalid_argument);
  EXPECT_EQ(bluestein_fft_size(kMaxBluesteinSize), std::uint64_t{1} << 30);
  EXPECT_EQ(bluestein_fft_size(kMaxBluesteinSize - 1),
            std::uint64_t{1} << 30);
  for (const std::uint64_t n :
       {std::uint64_t{1}, kMaxBluesteinSize + 1,
        (std::uint64_t{1} << 63) + 1})  // 2N - 1 wraps to 1
    EXPECT_THROW(bluestein_fft_size(n), std::invalid_argument) << n;

  // Each 2-D dimension is one classic sweep, so the largest is 2^30 (and
  // rows * cols cannot wrap); the shapes past it are rejected up front,
  // the ones whose rows * cols would wrap included.
  EXPECT_EQ(fft2d_shape(std::size_t{1} << 60, std::uint64_t{1} << 30,
                        std::uint64_t{1} << 30)
                .rows,
            std::uint64_t{1} << 30);
  EXPECT_THROW(fft2d_shape(std::size_t{1} << 32, std::uint64_t{1} << 31, 2),
               std::invalid_argument);
  EXPECT_THROW(fft2d_shape(std::size_t{1} << 32, 2, std::uint64_t{1} << 31),
               std::invalid_argument);
  EXPECT_THROW(fft2d_shape(0, std::uint64_t{1} << 32, std::uint64_t{1} << 32),
               std::invalid_argument);
  EXPECT_THROW(fft2d_shape(0, std::uint64_t{1} << 63, 2),
               std::invalid_argument);
}

TEST(Executor, TeamSizeAboveTheCapIsRejected) {
  // Only sizes that get rejected are constructed here: each throws before
  // any thread starts.
  for (const unsigned bad : {codelet::Team::kMaxWorkers + 1, UINT_MAX}) {
    EXPECT_THROW(FftExecutor({.workers = bad}), std::invalid_argument) << bad;
    FftExecutor ex({.workers = 2});

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

/// The buffers of one serve_small dispatch round: (N, precision) = (64,
/// f64), (96, f64), (101, f32) and (128, f32), each in both directions,
/// kServeBatch transforms per (N, precision, direction) group, the spans
/// laid out group by group as the server lays them out.
constexpr std::size_t kServeBatch = 8;
constexpr std::uint64_t kServeSizes64[] = {64, 96};
constexpr std::uint64_t kServeSizes32[] = {101, 128};

struct ServeRound {
  std::vector<std::vector<cplx>> bufs64;
  std::vector<std::vector<cplx32>> bufs32;
  std::vector<std::span<cplx>> spans64;
  std::vector<std::span<cplx32>> spans32;

  explicit ServeRound(std::uint64_t seed) {
    for (std::size_t g = 0; g < 4; ++g)
      for (std::size_t b = 0; b < kServeBatch; ++b) {
        const std::uint64_t s = 1000 * seed + kServeBatch * g + b;
        bufs64.push_back(random_signal_as<double>(kServeSizes64[g % 2], s));
        bufs32.push_back(random_signal_as<float>(kServeSizes32[g % 2], s));
      }
    spans64.assign(bufs64.begin(), bufs64.end());
    spans32.assign(bufs32.begin(), bufs32.end());
  }

  /// Group g of the round's eight: f64 groups 0-3, f32 groups 4-7; in
  /// each precision its two sizes forward, then inverse.
  static bool inverse(std::size_t g) { return g % 4 >= 2; }
  std::span<const std::span<cplx>> f64(std::size_t g) const {
    return std::span<const std::span<cplx>>(spans64).subspan(g * kServeBatch,
                                                             kServeBatch);
  }
  std::span<const std::span<cplx32>> f32(std::size_t g) const {
    return std::span<const std::span<cplx32>>(spans32).subspan(
        (g - 4) * kServeBatch, kServeBatch);
  }
  BatchGroup group(std::size_t g) const {
    const TwiddleDirection dir =
        inverse(g) ? TwiddleDirection::kInverse : TwiddleDirection::kForward;
    return g < 4 ? BatchGroup(f64(g), dir) : BatchGroup(f32(g), dir);
  }

  bool same_bytes(const ServeRound& other) const {
    for (std::size_t i = 0; i < bufs64.size(); ++i)
      if (std::memcmp(bufs64[i].data(), other.bufs64[i].data(),
                      bufs64[i].size() * sizeof(cplx)) != 0)
        return false;
    for (std::size_t i = 0; i < bufs32.size(); ++i)
      if (std::memcmp(bufs32[i].data(), other.bufs32[i].data(),
                      bufs32[i].size() * sizeof(cplx32)) != 0)
        return false;
    return true;
  }
};

/// Runs group g of `round` on its own as one forward_batch/inverse_batch
/// call.
void run_as_batch_call(FftExecutor& ex, const ServeRound& round,
                       std::size_t g) {
  if (g < 4)
    ServeRound::inverse(g) ? ex.inverse_batch(round.f64(g))
                           : ex.forward_batch(round.f64(g));
  else
    ServeRound::inverse(g) ? ex.inverse_batch(round.f32(g))
                           : ex.forward_batch(round.f32(g));
}

TEST(Executor, ServeSmallMixRunsOnePhasePerRound) {
  // The serve_small dispatch round as the server issues it: its eight
  // groups in ONE run_groups call on a 2-worker executor. That is one
  // `serial` phase of 64 codelets (1/64 phases per transform), the same 5
  // plan-cache misses cold as the per-group calls and none warm, on one
  // team. Every transform's bytes equal those of the eight per-group
  // batch calls on a one-worker executor, under the active kernel tier and
  // under the scalar one.
  const util::IsaLevel saved = kernels::active_kernel_isa();
  FftExecutor ex({.workers = 2});
  FftExecutor ref({.workers = 1});
  std::vector<std::string> labels;
  std::uint64_t codelets = 0;
  ex.set_phase_hook([&](const codelet::PhaseStats& ps) {
    labels.emplace_back(ps.label);
    codelets += ps.executed;
  });
  std::uint64_t seed = 1;
  for (const util::IsaLevel isa : {saved, util::IsaLevel::kScalar}) {
    kernels::set_kernel_isa(isa);
    for (int pass = 0; pass < 3; ++pass, ++seed) {
      const std::string at = std::string(util::to_string(isa)) +
                             " pass " + std::to_string(pass);
      ServeRound got(seed), want(seed);
      std::vector<BatchGroup> groups;
      for (std::size_t g = 0; g < 8; ++g) groups.push_back(got.group(g));
      labels.clear();
      codelets = 0;
      ex.run_groups(groups);
      for (const BatchGroup& g : groups) EXPECT_FALSE(g.error()) << at;
      EXPECT_EQ(labels, std::vector<std::string>{"serial"}) << at;
      EXPECT_EQ(codelets, 8 * kServeBatch) << at;
      if (seed == 1) {
        EXPECT_EQ(ex.stats().cache.misses, 5u);  // cold
      }
      for (std::size_t g = 0; g < 8; ++g) run_as_batch_call(ref, want, g);
      EXPECT_TRUE(got.same_bytes(want)) << at;
    }
  }
  kernels::set_kernel_isa(saved);
  ex.set_phase_hook({});
  const ExecutorStats s = ex.stats();
  EXPECT_EQ(s.cache.misses, 5u);
  EXPECT_EQ(s.teams_created, 1u);
  EXPECT_EQ(s.batched, 6u * 8u * kServeBatch);
  EXPECT_EQ(s.mixed_radix, 6u * 2u * kServeBatch);
  EXPECT_EQ(s.bluestein, 6u * 2u * kServeBatch);
}

TEST(Executor, RunGroupsReportsAFailedGroupAndRunsTheRest) {
  // A group that cannot run — lengths that differ, or a length no route
  // runs — is reported in its own error() and the call's other groups
  // run, in the one phase, byte-identical to their own batch calls.
  FftExecutor ex({.workers = 2});
  FftExecutor ref({.workers = 1});
  auto a = random_signal(64, 1), b = random_signal(64, 2);
  auto c = random_signal_as<float>(101, 3);
  auto want_a = a, want_b = b;
  auto want_c = c;
  std::vector<cplx> short_one(32), long_one(64), one_point(1);
  const std::span<cplx> good[2] = {a, b};
  const std::span<cplx32> good32[1] = {c};
  const std::span<cplx> mixed[2] = {short_one, long_one};
  const std::span<cplx> too_small[1] = {one_point};
  BatchGroup groups[4] = {{good, TwiddleDirection::kForward},
                          {mixed, TwiddleDirection::kForward},
                          {good32, TwiddleDirection::kInverse},
                          {too_small, TwiddleDirection::kInverse}};
  std::uint64_t phases = 0;
  ex.set_phase_hook([&](const codelet::PhaseStats&) { ++phases; });
  ex.run_groups(groups);
  ex.set_phase_hook({});
  EXPECT_FALSE(groups[0].error());
  EXPECT_FALSE(groups[2].error());
  for (const std::size_t bad : {1u, 3u}) {
    ASSERT_TRUE(groups[bad].error()) << bad;
    EXPECT_THROW(std::rethrow_exception(groups[bad].error()),
                 std::invalid_argument)
        << bad;
  }
  EXPECT_EQ(phases, 1u);
  EXPECT_EQ(ex.stats().batched, 2u);
  EXPECT_EQ(ex.stats().transforms, 1u);

  const std::span<cplx> want_pair[2] = {want_a, want_b};
  ref.forward_batch(want_pair);
  ref.inverse(std::span<cplx32>(want_c));
  EXPECT_EQ(0, std::memcmp(a.data(), want_a.data(), 64 * sizeof(cplx)));
  EXPECT_EQ(0, std::memcmp(b.data(), want_b.data(), 64 * sizeof(cplx)));
  EXPECT_EQ(0, std::memcmp(c.data(), want_c.data(), 101 * sizeof(cplx32)));
}

TEST(Executor, PhaseLabelsNameEachRoutesPhases) {
  // Each route's phases by label, on a 2-worker executor: the serial body
  // is one `serial` phase per call; a single mixed-radix transform is
  // `mixed.permute`, then one `mixed.stage` per stage; a hierarchical
  // transform's `hier.A` and `hier.B` (test_hierarchical pins them alone)
  // run after the call's serial phase when the call also holds serial
  // groups; a 2-D transform is exactly `fft2d.A` and `fft2d.B`, square or
  // not, in both directions.
  FftExecutor ex({.workers = 2});
  std::vector<std::string> labels;
  ex.set_phase_hook(
      [&](const codelet::PhaseStats& ps) { labels.emplace_back(ps.label); });
  const auto phases_of = [&](const auto& call) {
    labels.clear();
    call();
    return labels;
  };
  using Labels = std::vector<std::string>;

  auto pow2 = random_signal(256, 1);
  EXPECT_EQ(phases_of([&] { ex.forward(std::span<cplx>(pow2)); }),
            Labels{"serial"});
  auto composite = random_signal(360, 2);
  Labels mixed{"mixed.permute"};
  mixed.insert(mixed.end(), MixedRadixPlan(360).stage_count(), "mixed.stage");
  EXPECT_EQ(phases_of([&] { ex.inverse(std::span<cplx>(composite)); }),
            mixed);
  auto large = random_signal(std::uint64_t{1} << 18, 3);
  const std::span<cplx> large_one[1] = {large};
  const std::span<cplx> pow2_one[1] = {pow2};
  const std::span<cplx> composite_one[1] = {composite};
  BatchGroup groups[3] = {{large_one, TwiddleDirection::kInverse},
                          {pow2_one, TwiddleDirection::kForward},
                          {composite_one, TwiddleDirection::kForward}};
  EXPECT_EQ(phases_of([&] { ex.run_groups(groups); }),
            (Labels{"serial", "hier.A", "hier.B"}));
  auto image = random_signal(64 * 128, 4);
  for (const auto dir : {TwiddleDirection::kForward, TwiddleDirection::kInverse}) {
    EXPECT_EQ(phases_of([&] {
                ex.transform_2d(std::span<cplx>(image).first(64 * 64), 64, 64,
                                dir);
              }),
              (Labels{"fft2d.A", "fft2d.B"}));
    EXPECT_EQ(phases_of([&] {
                ex.transform_2d(std::span<cplx>(image), 64, 128, dir);
              }),
              (Labels{"fft2d.A", "fft2d.B"}));
  }
  ex.set_phase_hook({});
}

}  // namespace
}  // namespace c64fft::fft
