// The zero-allocation serving contract, measured: this binary implements
// the serve/alloc_probe.hpp operator-new replacement (its OWN global
// new/delete — which is why it is a separate test binary), warms a
// server, then counts every heap allocation across a steady-state
// submit→complete loop. The client thread's counter covers
// submit()/Ticket::wait(); the ServerOptions::alloc_probe hook has the
// dispatcher split its thread's count into executor-internal work and
// the serving layer's own drain/group/complete path. Steady state, both
// must hold: client-side delta 0, serving-layer delta 0. The same probe
// gates the executor on its own: a warm call of every entry point, per
// route and team size, 2-D included, allocates nothing on the calling
// thread.

#define C64FFT_ALLOC_PROBE_IMPLEMENT
#include "serve/alloc_probe.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "fft/executor.hpp"
#include "fft/fft2d.hpp"
#include "serve/server.hpp"
#include "util/prng.hpp"

namespace c64fft::serve {
namespace {

std::vector<fft::cplx> random_signal(std::uint64_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<fft::cplx> v(n);
  for (auto& x : v)
    x = fft::cplx(rng.next_double() * 2 - 1, rng.next_double() * 2 - 1);
  return v;
}

TEST(ServeAllocProbe, CountsThisThreadsAllocations) {
  const std::uint64_t before = thread_alloc_count();
  auto* p = new int(7);
  const std::uint64_t after = thread_alloc_count();
  delete p;
  EXPECT_GT(after, before);  // the probe really is this binary's new
}

TEST(ServeAllocProbe, SteadyStateSubmitCompletePathIsAllocationFree) {
  ServerOptions so;
  so.alloc_probe = &thread_alloc_count;
  FftServer server(so);
  TenantQuota quota;
  quota.max_plan_shapes = 4;
  const TenantId t = server.add_tenant(quota);

  constexpr std::uint64_t kN = 256;
  auto data = random_signal(kN, 42);
  const std::span<fft::cplx> span(data);

  // Warmup: first submissions build the plan (trig tables, bitrev
  // tables — and, first time each DIRECTION runs, the conjugated
  // twiddles of the inverse path) and fault in any lazy runtime state.
  // Allocations here are expected and not the contract.
  for (int i = 0; i < 16; ++i) {
    auto s = server.submit(t, span,
                           i % 2 == 0 ? Direction::kForward
                                      : Direction::kInverse);
    ASSERT_EQ(s.status, SubmitStatus::kAccepted);
    ASSERT_EQ(s.ticket.wait().status, RequestStatus::kOk);
  }

  const ServerStats warm = server.stats();
  const std::uint64_t client_before = thread_alloc_count();
  std::uint64_t client_after = client_before;
  for (int i = 0; i < 100; ++i) {
    auto s = server.submit(t, span,
                           i % 2 == 0 ? Direction::kForward
                                      : Direction::kInverse);
    if (s.status != SubmitStatus::kAccepted) break;  // assert after loop
    if (s.ticket.wait().status != RequestStatus::kOk) break;
    client_after = thread_alloc_count();
  }
  // Assertions AFTER the measured loop: gtest machinery allocates.
  const ServerStats steady = server.stats();
  EXPECT_EQ(client_after - client_before, 0u)
      << "submit()/Ticket::wait() allocated on the client thread";
  EXPECT_EQ(steady.dispatch_allocs - warm.dispatch_allocs, 0u)
      << "the dispatcher's drain/group/complete path allocated";
  // workers=1 rides the executor's serial fast path, whose steady state
  // (cached plan, cached bitrev table, no team) is also allocation-free.
  EXPECT_EQ(steady.executor_allocs - warm.executor_allocs, 0u)
      << "the executor allocated on a cache-hit serial transform";
  EXPECT_EQ(steady.completed - warm.completed, 100u);
}

// Self-resubmitting completion chain for the callback-mode test below
// (namespace scope: the callback must name itself to re-arm).
struct ChainCtx {
  FftServer* server = nullptr;
  TenantId tenant = 0;
  std::span<fft::cplx> span;
  std::atomic<int> remaining{0};
  std::atomic<int> errors{0};
};

void chain_on_done(void* p, const Completion& done) {
  auto* c = static_cast<ChainCtx*>(p);
  if (done.status != RequestStatus::kOk) c->errors.fetch_add(1);
  if (c->remaining.fetch_sub(1, std::memory_order_acq_rel) <= 1) return;
  c->server->submit(c->tenant, c->span, Direction::kForward, Lane::kNormal,
                    &chain_on_done, p);
}

TEST(ServeAllocProbe, CallbackResubmitLoopIsAllocationFree) {
  // The async serving shape tools/fft_loadgen drives: completions
  // resubmit from the dispatcher thread, so the ENTIRE steady-state
  // cycle (complete → callback → submit → drain → execute) runs on one
  // thread under the serving layer's allocation accounting.
  ServerOptions so;
  so.alloc_probe = &thread_alloc_count;
  FftServer server(so);
  const TenantId t = server.add_tenant({});

  constexpr std::uint64_t kN = 128;
  auto data = random_signal(kN, 7);

  ChainCtx ctx;
  ctx.server = &server;
  ctx.tenant = t;
  ctx.span = std::span<fft::cplx>(data);

  // Warmup round trip, then measure a 200-cycle self-sustaining chain.
  ctx.remaining.store(8);
  ASSERT_EQ(server
                .submit(t, ctx.span, Direction::kForward, Lane::kNormal,
                        &chain_on_done, &ctx)
                .status,
            SubmitStatus::kAccepted);
  while (ctx.remaining.load(std::memory_order_acquire) > 0)
    std::this_thread::yield();

  const ServerStats warm = server.stats();
  ctx.remaining.store(200);
  ASSERT_EQ(server
                .submit(t, ctx.span, Direction::kForward, Lane::kNormal,
                        &chain_on_done, &ctx)
                .status,
            SubmitStatus::kAccepted);
  while (ctx.remaining.load(std::memory_order_acquire) > 0)
    std::this_thread::yield();
  const ServerStats steady = server.stats();

  EXPECT_EQ(ctx.errors.load(), 0);
  EXPECT_EQ(steady.dispatch_allocs - warm.dispatch_allocs, 0u)
      << "callback-resubmit steady state allocated in the serving layer";
  EXPECT_EQ(steady.completed - warm.completed, 200u);
}

/// Calling-thread allocations of one warm call of each executor entry
/// point: forward and inverse on one transform, forward_batch and
/// inverse_batch on `batch` transforms.
struct CallAllocs {
  std::uint64_t forward = 0;
  std::uint64_t inverse = 0;
  std::uint64_t forward_batch = 0;
  std::uint64_t inverse_batch = 0;
};

template <typename T>
CallAllocs warm_call_allocs(fft::FftExecutor& ex, std::uint64_t n,
                            unsigned workers, std::size_t batch_size) {
  util::Xoshiro256 rng(n);
  std::vector<std::vector<fft::cplx_t<T>>> data(
      batch_size, std::vector<fft::cplx_t<T>>(n));
  for (auto& d : data)
    for (auto& x : d)
      x = fft::cplx_t<T>(static_cast<T>(rng.next_double() * 2 - 1),
                         static_cast<T>(rng.next_double() * 2 - 1));
  const std::vector<std::span<fft::cplx_t<T>>> batch(data.begin(),
                                                      data.end());
  const std::span<fft::cplx_t<T>> one(data[0]);
  const fft::HostFftOptions opts{workers};
  // Warm-up: plans, both twiddle directions, scratch and the team.
  for (int i = 0; i < 2; ++i) {
    ex.forward(one, opts);
    ex.inverse(one, opts);
    ex.forward_batch(batch, opts);
    ex.inverse_batch(batch, opts);
  }
  CallAllocs c;
  std::uint64_t before = thread_alloc_count();
  ex.forward(one, opts);
  c.forward = thread_alloc_count() - before;
  before = thread_alloc_count();
  ex.inverse(one, opts);
  c.inverse = thread_alloc_count() - before;
  before = thread_alloc_count();
  ex.forward_batch(batch, opts);
  c.forward_batch = thread_alloc_count() - before;
  before = thread_alloc_count();
  ex.inverse_batch(batch, opts);
  c.inverse_batch = thread_alloc_count() - before;
  return c;
}

/// Every warm call at every size of `sizes` on 1, 2 and 4 workers
/// allocates nothing on the calling thread. Returns the last executor's
/// stats so callers can check which routes ran.
template <typename T>
fft::ExecutorStats check_warm_calls_allocate_nothing(
    std::span<const std::uint64_t> sizes, std::size_t batch_size) {
  fft::ExecutorStats last;
  for (const unsigned workers : {1u, 2u, 4u}) {
    fft::FftExecutor ex({.workers = workers});
    for (const std::uint64_t n : sizes) {
      const CallAllocs c = warm_call_allocs<T>(ex, n, workers, batch_size);
      const std::string at =
          "n=" + std::to_string(n) + " workers=" + std::to_string(workers);
      EXPECT_EQ(c.forward, 0u) << at;
      EXPECT_EQ(c.inverse, 0u) << at;
      EXPECT_EQ(c.forward_batch, 0u) << at;
      EXPECT_EQ(c.inverse_batch, 0u) << at;
    }
    last = ex.stats();
  }
  return last;
}

// Pow2 (classic serial body), Bluestein over a classic convolution, and
// mixed-radix composites: a single one on a multi-worker team runs the
// phased body (one phase per stage), a batch the serial body.
constexpr std::uint64_t kSmallSizes[] = {64, 128, 101, 96, 360, 100000};

TEST(ExecutorAllocs, WarmCallsAllocateNothingF64) {
  check_warm_calls_allocate_nothing<double>(kSmallSizes, 8);
}

TEST(ExecutorAllocs, WarmCallsAllocateNothingF32) {
  check_warm_calls_allocate_nothing<float>(kSmallSizes, 8);
}

// The hierarchical pipeline (2^18, 2^20: one borrowed-body phase per
// transform) and Bluestein over it (N = 65537: two M = 2^18 pipelines).
constexpr std::uint64_t kLargeSizes[] = {std::uint64_t{1} << 18,
                                         std::uint64_t{1} << 20, 65537};

TEST(ExecutorAllocs, WarmLargeCallsAllocateNothingF64) {
  const fft::ExecutorStats st =
      check_warm_calls_allocate_nothing<double>(kLargeSizes, 2);
  EXPECT_GT(st.hierarchical, 0u);
  EXPECT_GT(st.bluestein, 0u);
}

TEST(ExecutorAllocs, WarmLargeCallsAllocateNothingF32) {
  const fft::ExecutorStats st =
      check_warm_calls_allocate_nothing<float>(kLargeSizes, 2);
  EXPECT_GT(st.hierarchical, 0u);
  EXPECT_GT(st.bluestein, 0u);
}

/// Warm forward_2d and inverse_2d calls (the tile pipeline over the
/// matrix, on the default executor) allocate nothing on the calling
/// thread, square and rectangular, on 1, 2 and 4 workers.
template <typename T>
void check_warm_2d_calls_allocate_nothing() {
  for (const unsigned workers : {1u, 2u, 4u})
    for (const std::uint64_t cols : {std::uint64_t{64}, std::uint64_t{128}}) {
      const std::uint64_t rows = 64;
      std::vector<fft::cplx_t<T>> image(rows * cols);
      util::Xoshiro256 rng(cols);
      for (auto& x : image)
        x = fft::cplx_t<T>(static_cast<T>(rng.next_double() * 2 - 1),
                           static_cast<T>(rng.next_double() * 2 - 1));
      const std::span<fft::cplx_t<T>> m(image);
      const fft::HostFftOptions opts{workers};
      for (int i = 0; i < 2; ++i) {  // warm: plans, scratch and the team
        fft::forward_2d(m, rows, cols, opts);
        fft::inverse_2d(m, rows, cols, opts);
      }
      const std::string at = std::to_string(rows) + "x" + std::to_string(cols) +
                             " workers=" + std::to_string(workers);
      std::uint64_t before = thread_alloc_count();
      fft::forward_2d(m, rows, cols, opts);
      EXPECT_EQ(thread_alloc_count() - before, 0u) << "forward_2d " << at;
      before = thread_alloc_count();
      fft::inverse_2d(m, rows, cols, opts);
      EXPECT_EQ(thread_alloc_count() - before, 0u) << "inverse_2d " << at;
    }
}

TEST(ExecutorAllocs, Warm2dCallsAllocateNothingF64) {
  check_warm_2d_calls_allocate_nothing<double>();
}

TEST(ExecutorAllocs, Warm2dCallsAllocateNothingF32) {
  check_warm_2d_calls_allocate_nothing<float>();
}

/// Appends `batch` random buffers of length n at precision T to `bufs`.
template <typename T>
void add_buffers(std::vector<std::vector<fft::cplx_t<T>>>& bufs,
                 std::uint64_t n, std::size_t batch) {
  util::Xoshiro256 rng(n + bufs.size());
  for (std::size_t b = 0; b < batch; ++b) {
    std::vector<fft::cplx_t<T>> v(n);
    for (auto& x : v)
      x = fft::cplx_t<T>(static_cast<T>(rng.next_double() * 2 - 1),
                         static_cast<T>(rng.next_double() * 2 - 1));
    bufs.push_back(std::move(v));
  }
}

TEST(ExecutorAllocs, WarmMultiGroupCallAllocatesNothing) {
  // One run_groups call as a server's dispatch round makes it, and more:
  // a group per small size, precision and direction (each on its own
  // buffers, all in the call's one phase) plus a 2^18 group, pipelined
  // after the phase. Warm, it allocates nothing on 1, 2 and 4 workers.
  constexpr std::size_t kBatch = 4;
  for (const unsigned workers : {1u, 2u, 4u}) {
    std::vector<std::vector<fft::cplx>> bufs64;
    std::vector<std::vector<fft::cplx32>> bufs32;
    for (const std::uint64_t n : kSmallSizes)
      for (int dir = 0; dir < 2; ++dir) {
        add_buffers<double>(bufs64, n, kBatch);
        add_buffers<float>(bufs32, n, kBatch);
      }
    add_buffers<double>(bufs64, std::uint64_t{1} << 18, 1);
    const std::vector<std::span<fft::cplx>> spans64(bufs64.begin(),
                                                    bufs64.end());
    const std::vector<std::span<fft::cplx32>> spans32(bufs32.begin(),
                                                      bufs32.end());
    std::vector<fft::BatchGroup> groups;
    for (std::size_t g = 0; g < spans32.size() / kBatch; ++g) {
      const fft::TwiddleDirection dir = g % 2 == 0
                                            ? fft::TwiddleDirection::kForward
                                            : fft::TwiddleDirection::kInverse;
      groups.emplace_back(std::span<const std::span<fft::cplx>>(spans64)
                              .subspan(g * kBatch, kBatch),
                          dir);
      groups.emplace_back(std::span<const std::span<fft::cplx32>>(spans32)
                              .subspan(g * kBatch, kBatch),
                          dir);
    }
    groups.emplace_back(
        std::span<const std::span<fft::cplx>>(spans64).last(1),
        fft::TwiddleDirection::kInverse);

    fft::FftExecutor ex({.workers = workers});
    for (int i = 0; i < 2; ++i) ex.run_groups(groups);  // warm
    const std::uint64_t before = thread_alloc_count();
    ex.run_groups(groups);
    const std::uint64_t allocs = thread_alloc_count() - before;
    EXPECT_EQ(allocs, 0u) << "workers=" << workers;
    for (const fft::BatchGroup& g : groups)
      EXPECT_FALSE(g.error()) << "workers=" << workers;
    EXPECT_GT(ex.stats().hierarchical, 0u);
  }
}

}  // namespace
}  // namespace c64fft::serve
