// FftServer / BufferArena / LatencyHistogram: the multi-tenant serving
// front-end. These tests pin the coalescing-correctness contract (a
// coalesced batch is bit-identical per transform to a loop of single
// executor calls, both precisions), the typed-rejection backpressure and
// per-tenant quotas, zero-copy arena lease semantics, shutdown racing
// concurrent submitters, one team per executor whatever a call's options,
// and multi-tenant concurrent submission (run under TSan via
// C64FFT_TSAN).

#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "fft/kernels/dispatch.hpp"
#include "serve/metrics.hpp"
#include "util/cpu_features.hpp"
#include "util/prng.hpp"

namespace c64fft::serve {
namespace {

template <typename T>
std::vector<std::complex<T>> random_signal(std::uint64_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<std::complex<T>> v(n);
  for (auto& x : v)
    x = {static_cast<T>(rng.next_double() * 2 - 1),
         static_cast<T>(rng.next_double() * 2 - 1)};
  return v;
}

TenantQuota roomy_quota() {
  TenantQuota q;
  q.max_arena_bytes = std::size_t{16} << 20;
  q.max_plan_shapes = 16;
  return q;
}

// ---- BufferArena ----

TEST(BufferArena, LeaseIsAlignedZeroCopyAndRecycled) {
  ArenaOptions ao;
  ao.slab_bytes = 4096;
  ao.slab_count = 2;
  BufferArena arena(ao);
  arena.set_tenant_quota(0, std::size_t{1} << 20);

  auto r = arena.lease(0, 1024);
  ASSERT_EQ(r.status, LeaseStatus::kOk);
  ASSERT_TRUE(r.lease.valid());
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(r.lease.as<fft::cplx>().data()) % 64,
            0u);
  EXPECT_EQ(r.lease.as<fft::cplx>().size(), 1024u / sizeof(fft::cplx));

  // Writing through the span and reading it back is the same memory —
  // the lease is a view into the arena, never a copy.
  r.lease.as<fft::cplx>()[0] = {3.0, -4.0};
  EXPECT_EQ(r.lease.as<fft::cplx>()[0], (fft::cplx{3.0, -4.0}));

  const std::byte* first = r.lease.as<std::byte>().data();
  EXPECT_EQ(arena.stats().slabs_in_use, 1u);
  r.lease.release();
  EXPECT_EQ(arena.stats().slabs_in_use, 0u);

  // The freed slab is reused (LIFO freelist: warm slab first).
  auto r2 = arena.lease(0, 4096);
  ASSERT_EQ(r2.status, LeaseStatus::kOk);
  EXPECT_EQ(r2.lease.as<std::byte>().data(), first);
}

TEST(BufferArena, TypedRejections) {
  ArenaOptions ao;
  ao.slab_bytes = 1024;
  ao.slab_count = 2;
  BufferArena arena(ao);
  arena.set_tenant_quota(0, 2048);
  arena.set_tenant_quota(1, 1024);

  EXPECT_EQ(arena.lease(7, 64).status, LeaseStatus::kUnknownTenant);
  EXPECT_EQ(arena.lease(0, 4096).status, LeaseStatus::kTooLarge);

  // Tenant 1's quota is one slab: the second lease is a quota reject
  // even though a free slab exists.
  auto a = arena.lease(1, 512);
  ASSERT_EQ(a.status, LeaseStatus::kOk);
  EXPECT_EQ(arena.lease(1, 512).status, LeaseStatus::kQuotaExceeded);

  // Tenant 0 may take the last slab; then the pool is dry for everyone.
  auto b = arena.lease(0, 512);
  ASSERT_EQ(b.status, LeaseStatus::kOk);
  EXPECT_EQ(arena.lease(0, 512).status, LeaseStatus::kExhausted);
  EXPECT_GE(arena.stats().rejected, 3u);
}

// ---- LatencyHistogram ----

TEST(LatencyHistogram, SnapshotTracksPercentilesAndMax) {
  LatencyHistogram h;
  for (int i = 0; i < 99; ++i) h.record(1000);
  h.record(1000000);
  const LatencySnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 100u);
  EXPECT_EQ(s.max_ns, 1000000u);
  // p50 lands in the 1000ns bucket; p99 boundary still within the bulk.
  EXPECT_GE(s.p50_ns, 512.0);
  EXPECT_LE(s.p50_ns, 2048.0);
  EXPECT_GE(s.p99_ns, s.p50_ns);
  EXPECT_GT(s.mean_ns, 1000.0);
}

// ---- FftServer: correctness ----

TEST(Serve, CoalescedBatchBitIdenticalToSingleCallLoop) {
  // Bit-identity, not tolerance: coalescing must never change results.
  // Reference: the same executor configuration, one forward() per
  // buffer. Submissions of one shape landing in one dispatch round are
  // grouped into a single forward_batch, which the executor pins as
  // bit-identical to the loop — so the server path must match exactly.
  constexpr std::uint64_t kN = 256;
  constexpr int kK = 8;
  ServerOptions so;
  so.coalesce_window_us = 200000;  // hold the batch open...
  so.max_coalesce = kK;            // ...until all kK requests are in
  so.arena.slab_bytes = kN * sizeof(fft::cplx);
  so.arena.slab_count = kK + 1;
  FftServer server(so);
  const TenantId t = server.add_tenant(roomy_quota());

  fft::FftExecutor reference;
  fft::HostFftOptions hopts;
  hopts.workers = 1;

  // f64 round.
  {
    std::vector<std::vector<fft::cplx>> want(kK);
    std::vector<BufferLease> leases;
    std::vector<Ticket> tickets;
    for (int i = 0; i < kK; ++i) {
      want[i] = random_signal<double>(kN, 100 + i);
      auto r = server.arena().lease(t, kN * sizeof(fft::cplx));
      ASSERT_EQ(r.status, LeaseStatus::kOk);
      std::memcpy(r.lease.as<fft::cplx>().data(), want[i].data(),
                  kN * sizeof(fft::cplx));
      leases.push_back(std::move(r.lease));
    }
    for (int i = 0; i < kK; ++i) {
      auto s = server.submit(t, leases[i].as<fft::cplx>(), Direction::kForward);
      ASSERT_EQ(s.status, SubmitStatus::kAccepted);
      tickets.push_back(std::move(s.ticket));
    }
    for (auto& tk : tickets)
      EXPECT_EQ(tk.wait().status, RequestStatus::kOk);
    for (int i = 0; i < kK; ++i) {
      reference.forward(std::span<fft::cplx>(want[i]), hopts);
      EXPECT_EQ(std::memcmp(leases[i].as<fft::cplx>().data(), want[i].data(),
                            kN * sizeof(fft::cplx)),
                0)
          << "f64 buffer " << i;
    }
  }

  // f32 round, inverse direction for coverage.
  {
    std::vector<std::vector<fft::cplx32>> want(kK);
    std::vector<BufferLease> leases;
    std::vector<Ticket> tickets;
    for (int i = 0; i < kK; ++i) {
      want[i] = random_signal<float>(kN, 200 + i);
      auto r = server.arena().lease(t, kN * sizeof(fft::cplx32));
      ASSERT_EQ(r.status, LeaseStatus::kOk);
      std::memcpy(r.lease.as<fft::cplx32>().data(), want[i].data(),
                  kN * sizeof(fft::cplx32));
      leases.push_back(std::move(r.lease));
    }
    for (int i = 0; i < kK; ++i) {
      auto s = server.submit(t, leases[i].as<fft::cplx32>(), Direction::kInverse);
      ASSERT_EQ(s.status, SubmitStatus::kAccepted);
      tickets.push_back(std::move(s.ticket));
    }
    for (auto& tk : tickets)
      EXPECT_EQ(tk.wait().status, RequestStatus::kOk);
    for (int i = 0; i < kK; ++i) {
      reference.inverse(std::span<fft::cplx32>(want[i]), hopts);
      EXPECT_EQ(std::memcmp(leases[i].as<fft::cplx32>().data(), want[i].data(),
                            kN * sizeof(fft::cplx32)),
                0)
          << "f32 buffer " << i;
    }
  }

  // The rounds really were coalesced, not drained one by one.
  EXPECT_GE(server.stats().coalescing_factor, 2.0);
}

TEST(Serve, MixedPow2AndCompositeTrafficCoalescesPerExactKey) {
  // One dispatch round of mixed traffic: a pow2 size, a 7-smooth
  // composite, and a prime, plus one f32 shape. Coalescing must group by
  // the EXACT (n, precision, direction) key — one group per key, never a
  // padded or merged one — and every result must stay bit-identical to a
  // loop of single executor calls.
  constexpr int kK = 4;
  const std::uint64_t sizes64[3] = {256, 96, 101};
  constexpr std::uint64_t kN32 = 96;
  ServerOptions so;
  so.coalesce_window_us = 200000;  // hold the round open...
  so.max_coalesce = 4 * kK;        // ...until all 4 keys' requests are in
  so.arena.slab_bytes = 256 * sizeof(fft::cplx);
  so.arena.slab_count = 4 * kK + 1;
  FftServer server(so);
  const TenantId t = server.add_tenant(roomy_quota());

  fft::FftExecutor reference;
  fft::HostFftOptions hopts;
  hopts.workers = 1;

  std::vector<std::vector<fft::cplx>> want64;
  std::vector<std::vector<fft::cplx32>> want32;
  std::vector<BufferLease> leases64, leases32;
  for (int i = 0; i < kK; ++i) {
    for (std::uint64_t n : sizes64) {
      want64.push_back(random_signal<double>(n, 300 + want64.size()));
      auto r = server.arena().lease(t, n * sizeof(fft::cplx));
      ASSERT_EQ(r.status, LeaseStatus::kOk);
      std::memcpy(r.lease.as<fft::cplx>().data(), want64.back().data(),
                  n * sizeof(fft::cplx));
      leases64.push_back(std::move(r.lease));
    }
    want32.push_back(random_signal<float>(kN32, 400 + want32.size()));
    auto r = server.arena().lease(t, kN32 * sizeof(fft::cplx32));
    ASSERT_EQ(r.status, LeaseStatus::kOk);
    std::memcpy(r.lease.as<fft::cplx32>().data(), want32.back().data(),
                kN32 * sizeof(fft::cplx32));
    leases32.push_back(std::move(r.lease));
  }

  std::vector<Ticket> tickets;
  for (auto& l : leases64) {
    auto s = server.submit(t, l.as<fft::cplx>(), Direction::kForward);
    ASSERT_EQ(s.status, SubmitStatus::kAccepted);
    tickets.push_back(std::move(s.ticket));
  }
  for (auto& l : leases32) {
    auto s = server.submit(t, l.as<fft::cplx32>(), Direction::kForward);
    ASSERT_EQ(s.status, SubmitStatus::kAccepted);
    tickets.push_back(std::move(s.ticket));
  }
  for (auto& tk : tickets) EXPECT_EQ(tk.wait().status, RequestStatus::kOk);

  for (std::size_t i = 0; i < want64.size(); ++i) {
    const std::uint64_t n = want64[i].size();
    reference.forward(std::span<fft::cplx>(want64[i]), hopts);
    EXPECT_EQ(std::memcmp(leases64[i].as<fft::cplx>().data(),
                          want64[i].data(), n * sizeof(fft::cplx)),
              0)
        << "f64 n=" << n << " buffer " << i;
  }
  for (std::size_t i = 0; i < want32.size(); ++i) {
    reference.forward(std::span<fft::cplx32>(want32[i]), hopts);
    EXPECT_EQ(std::memcmp(leases32[i].as<fft::cplx32>().data(),
                          want32[i].data(), kN32 * sizeof(fft::cplx32)),
              0)
        << "f32 buffer " << i;
  }

  // Exactly one coalesced group per exact key: {256,f64}, {96,f64},
  // {101,f64}, {96,f32} — the pow2 and composite shapes coalesced side by
  // side in one round, kK-deep each, and the round is ONE executor call
  // of ONE phase.
  const ServerStats st = server.stats();
  EXPECT_EQ(st.completed, 4u * kK);
  EXPECT_EQ(st.batches, 4u);
  EXPECT_EQ(st.rounds, 1u);
  EXPECT_EQ(st.phases, 1u);
  EXPECT_EQ(st.codelets, 4u * kK);
  EXPECT_GE(st.coalescing_factor, static_cast<double>(kK));
}

/// Completion order of a round's requests, recorded by their callbacks.
struct CompletionLog {
  std::mutex m;
  std::condition_variable cv;
  std::vector<int> order;
};

struct LoggedRequest {
  CompletionLog* log = nullptr;
  int id = 0;
  RequestStatus status = RequestStatus::kError;
};

void log_completion(void* ctx, const Completion& done) {
  auto* r = static_cast<LoggedRequest*>(ctx);
  r->status = done.status;
  {
    std::lock_guard lock(r->log->m);
    r->log->order.push_back(r->id);
  }
  r->log->cv.notify_all();
}

TEST(Serve, RoundCompletesItsSerialGroupsBeforeItsPipelinedGroup) {
  // One held-open round: a 2^18 request (the tile pipeline's route) is
  // drained first, then 8 N = 64 requests. The round makes two executor
  // calls, the serial groups' first, so the small requests complete
  // before the pipeline runs instead of waiting it out.
  constexpr int kSmall = 8;
  ServerOptions so;
  so.workers = 2;
  so.coalesce_window_us = 200000;  // hold the round open...
  so.max_coalesce = kSmall + 1;    // ...until all 9 requests are in
  FftServer server(so);
  const TenantId t = server.add_tenant(roomy_quota());

  CompletionLog log;
  std::vector<std::vector<fft::cplx>> bufs;
  bufs.push_back(random_signal<double>(std::uint64_t{1} << 18, 1));
  for (int i = 0; i < kSmall; ++i) bufs.push_back(random_signal<double>(64, 2 + i));
  std::vector<LoggedRequest> requests(bufs.size());
  for (std::size_t i = 0; i < bufs.size(); ++i) {
    requests[i] = {&log, static_cast<int>(i)};
    const SubmitResult r =
        server.submit(t, std::span<fft::cplx>(bufs[i]), Direction::kForward,
                      Lane::kNormal, log_completion, &requests[i]);
    ASSERT_EQ(r.status, SubmitStatus::kAccepted);
  }
  {
    std::unique_lock lock(log.m);
    log.cv.wait(lock, [&] { return log.order.size() == bufs.size(); });
  }

  // Request 0 is the 2^18 one: it completes last, every small one first.
  EXPECT_EQ(log.order.back(), 0);
  for (const LoggedRequest& r : requests) EXPECT_EQ(r.status, RequestStatus::kOk);
  const ServerStats st = server.stats();
  EXPECT_EQ(st.rounds, 1u);
  EXPECT_EQ(st.batches, 2u);
  EXPECT_EQ(st.completed, static_cast<std::uint64_t>(kSmall + 1));
}

TEST(Serve, CallbackCompletionDeliversOnDispatcherThread) {
  FftServer server;
  const TenantId t = server.add_tenant(roomy_quota());
  auto data = random_signal<double>(64, 1);

  struct Ctx {
    std::atomic<int> calls{0};
    std::atomic<bool> ok{false};
  } ctx;
  const CompletionFn cb = [](void* p, const Completion& done) {
    auto* c = static_cast<Ctx*>(p);
    c->ok.store(done.status == RequestStatus::kOk && done.latency_ns > 0);
    c->calls.fetch_add(1);
  };
  auto s = server.submit(t, std::span<fft::cplx>(data), Direction::kForward,
                         Lane::kInteractive, cb, &ctx);
  ASSERT_EQ(s.status, SubmitStatus::kAccepted);
  EXPECT_FALSE(s.ticket.valid());  // callback mode mints no ticket
  while (ctx.calls.load() == 0) std::this_thread::yield();
  EXPECT_TRUE(ctx.ok.load());
  EXPECT_EQ(server.stats().completed, 1u);
}

// ---- FftServer: admission control ----

TEST(Serve, TypedSubmitRejections) {
  ServerOptions so;
  so.queue_capacity = 2;
  so.coalesce_window_us = 10000000;  // park admitted work until shutdown
  FftServer server(so);
  TenantQuota tight;
  tight.max_plan_shapes = 1;
  const TenantId t = server.add_tenant(tight);

  auto good = random_signal<double>(64, 2);
  auto tiny = random_signal<double>(1, 3);

  // Composite lengths are servable (mixed-radix/Bluestein plans); the
  // degenerate N < 2 and a length past its route's limit are invalid
  // sizes, rejected at submit by the executor's own rule
  // (fft::fft_size_supported) rather than failing after dispatch. The
  // oversized spans are never read — admission rejects on the length
  // alone — so no buffer of those sizes is built.
  EXPECT_EQ(server
                .submit(t, std::span<fft::cplx>(tiny.data(), 1),
                        Direction::kForward)
                .status,
            SubmitStatus::kInvalidSize);
  for (const std::uint64_t n :
       {fft::kMaxBluesteinSize + 1, std::uint64_t{4299816960} /* 7-smooth */}) {
    EXPECT_EQ(server
                  .submit(t, std::span<fft::cplx>(good.data(), n),
                          Direction::kForward)
                  .status,
              SubmitStatus::kInvalidSize)
        << n;
  }
  EXPECT_EQ(server
                .submit(TenantId{42}, std::span<fft::cplx>(good),
                        Direction::kForward)
                .status,
            SubmitStatus::kUnknownTenant);

  // First shape (64, f64) charges the tenant's only plan-shape slot;
  // a second distinct shape is a quota reject...
  auto s1 = server.submit(t, std::span<fft::cplx>(good), Direction::kForward);
  ASSERT_EQ(s1.status, SubmitStatus::kAccepted);
  auto other = random_signal<double>(128, 4);
  EXPECT_EQ(
      server.submit(t, std::span<fft::cplx>(other), Direction::kForward).status,
      SubmitStatus::kPlanQuotaExceeded);
  // ...while more of the SAME shape is fine (until the pool runs out).
  auto good2 = random_signal<double>(64, 5);
  auto s2 = server.submit(t, std::span<fft::cplx>(good2), Direction::kForward);
  ASSERT_EQ(s2.status, SubmitStatus::kAccepted);

  // queue_capacity 2, both slots taken and parked in the coalescing
  // window: backpressure.
  auto good3 = random_signal<double>(64, 6);
  EXPECT_EQ(
      server.submit(t, std::span<fft::cplx>(good3), Direction::kForward).status,
      SubmitStatus::kQueueFull);

  const ServerStats st = server.stats();
  EXPECT_EQ(st.rejected_invalid, 3u);
  EXPECT_EQ(st.rejected_tenant, 1u);
  EXPECT_EQ(st.rejected_plan_quota, 1u);
  EXPECT_EQ(st.rejected_queue_full, 1u);

  // Shutdown still drains the two admitted requests to completion.
  server.shutdown();
  EXPECT_EQ(s1.ticket.wait().status, RequestStatus::kOk);
  EXPECT_EQ(s2.ticket.wait().status, RequestStatus::kOk);
  EXPECT_EQ(
      server.submit(t, std::span<fft::cplx>(good3), Direction::kForward).status,
      SubmitStatus::kShuttingDown);
}

// ---- FftServer: shutdown ----

TEST(Serve, ShutdownIsIdempotentAndDrains) {
  FftServer server;
  const TenantId t = server.add_tenant(roomy_quota());
  std::vector<std::vector<fft::cplx>> bufs;
  std::vector<Ticket> tickets;
  for (int i = 0; i < 4; ++i) {
    bufs.push_back(random_signal<double>(128, 10 + i));
    auto s =
        server.submit(t, std::span<fft::cplx>(bufs.back()), Direction::kForward);
    ASSERT_EQ(s.status, SubmitStatus::kAccepted);
    tickets.push_back(std::move(s.ticket));
  }
  server.shutdown();
  server.shutdown();  // idempotent
  for (auto& tk : tickets) EXPECT_EQ(tk.wait().status, RequestStatus::kOk);
  EXPECT_FALSE(server.accepting());
  EXPECT_EQ(server.stats().completed, 4u);
}

TEST(Serve, ShutdownRacesWithConcurrentSubmitters) {
  // The regression this layer fixes: tearing the serving path down while
  // clients are mid-submit must never lose an admitted request, deliver
  // a completion twice, or crash — every submit either completes or is
  // rejected with a typed status.
  ServerOptions so;
  so.workers = 2;
  FftServer server(so);
  const TenantId t = server.add_tenant(roomy_quota());

  constexpr int kThreads = 4;
  std::atomic<std::uint64_t> ok{0}, rejected{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int ti = 0; ti < kThreads; ++ti) {
    threads.emplace_back([&, ti] {
      auto data = random_signal<double>(64, 50 + ti);
      for (int i = 0; i < 200; ++i) {
        auto s =
            server.submit(t, std::span<fft::cplx>(data), Direction::kForward);
        if (s.status != SubmitStatus::kAccepted) {
          EXPECT_EQ(s.status, SubmitStatus::kShuttingDown);
          rejected.fetch_add(1);
          continue;
        }
        const Completion done = s.ticket.wait();
        EXPECT_NE(done.status, RequestStatus::kError);
        ok.fetch_add(1);
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  server.shutdown();
  for (auto& th : threads) th.join();
  EXPECT_EQ(server.stats().completed, ok.load());
  EXPECT_EQ(ok.load() + rejected.load(), kThreads * 200u);
}

// ---- One team per executor ----

TEST(Executor, DefaultOptionsRunTheExecutorsTeam) {
  // A call that names no team size runs the executor's own team
  // (ExecutorOptions::workers): no options, HostFftOptions{} and the
  // executor's own size are one team and one output. Another size
  // respawns it. The server's executor, sized by ServerOptions::workers,
  // keeps its one team across batches. (In this binary because it links
  // the server.)
  constexpr std::uint64_t kN = 1024;
  const auto input = random_signal<double>(kN, 900);
  fft::FftExecutor ex({.workers = 3});
  auto none = input;
  ex.forward(std::span<fft::cplx>(none));
  auto empty = input;
  ex.forward(std::span<fft::cplx>(empty), fft::HostFftOptions{});
  auto own = input;
  ex.forward(std::span<fft::cplx>(own), fft::HostFftOptions{3});
  EXPECT_EQ(std::memcmp(none.data(), empty.data(), kN * sizeof(fft::cplx)), 0);
  EXPECT_EQ(std::memcmp(none.data(), own.data(), kN * sizeof(fft::cplx)), 0);
  EXPECT_EQ(ex.stats().teams_created, 1u);
  auto two = input;
  ex.forward(std::span<fft::cplx>(two), fft::HostFftOptions{2});
  EXPECT_EQ(ex.stats().teams_created, 2u);
  EXPECT_EQ(std::memcmp(none.data(), two.data(), kN * sizeof(fft::cplx)), 0);

  ServerOptions so;
  so.workers = 2;
  FftServer server(so);
  const TenantId t = server.add_tenant(roomy_quota());
  for (int i = 0; i < 10; ++i) {
    auto data = random_signal<double>(256, 700 + i);
    auto s = server.submit(t, std::span<fft::cplx>(data),
                           i % 2 == 0 ? Direction::kForward : Direction::kInverse);
    ASSERT_EQ(s.status, SubmitStatus::kAccepted);
    ASSERT_EQ(s.ticket.wait().status, RequestStatus::kOk);
  }
  EXPECT_EQ(server.executor().stats().teams_created, 1u);
  EXPECT_EQ(server.stats().batches, 10u);
  server.shutdown();
}

// ---- FftServer: multi-tenant stress (TSan lane) ----

TEST(Serve, MultiTenantConcurrentMixedTraffic) {
  // Mixed shapes, precisions, lanes, and completion styles from many
  // tenant threads at once, against a 2-worker executor. Run under TSan
  // (scripts/check.sh) this is the data-race proof for the whole
  // submit/dispatch/complete surface.
  ServerOptions so;
  so.workers = 2;
  so.coalesce_window_us = 100;
  so.arena.slab_bytes = 512 * sizeof(fft::cplx);
  so.arena.slab_count = 32;
  FftServer server(so);

  constexpr int kTenants = 4;
  constexpr int kPerTenant = 60;
  std::array<TenantId, kTenants> tenants;
  for (auto& id : tenants) id = server.add_tenant(roomy_quota());

  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> cb_ok{0};
  std::vector<std::thread> threads;
  threads.reserve(kTenants);
  for (int ti = 0; ti < kTenants; ++ti) {
    threads.emplace_back([&, ti] {
      const TenantId tenant = tenants[ti];
      const std::uint64_t n = ti % 2 == 0 ? 128 : 512;
      const Lane lane = static_cast<Lane>(ti % kLaneCount);
      auto data64 = random_signal<double>(n, 1000 + ti);
      auto data32 = random_signal<float>(n, 2000 + ti);
      for (int i = 0; i < kPerTenant; ++i) {
        const Direction dir =
            i % 2 == 0 ? Direction::kForward : Direction::kInverse;
        if (i % 3 == 2) {
          // Callback-style completion; spin until delivered so the
          // buffer is never submitted twice concurrently.
          std::atomic<int> done{0};
          struct Ctx {
            std::atomic<int>* done;
            std::atomic<std::uint64_t>* cb_ok;
          } ctx{&done, &cb_ok};
          auto s = server.submit(
              tenant, std::span<fft::cplx32>(data32), dir, lane,
              [](void* p, const Completion& c) {
                auto* x = static_cast<Ctx*>(p);
                if (c.status == RequestStatus::kOk) x->cb_ok->fetch_add(1);
                x->done->store(1, std::memory_order_release);
              },
              &ctx);
          ASSERT_EQ(s.status, SubmitStatus::kAccepted);
          while (done.load(std::memory_order_acquire) == 0)
            std::this_thread::yield();
        } else {
          auto s = server.submit(tenant, std::span<fft::cplx>(data64), dir, lane);
          ASSERT_EQ(s.status, SubmitStatus::kAccepted);
          if (s.ticket.wait().status == RequestStatus::kOk) ok.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  const ServerStats st = server.stats();
  EXPECT_EQ(st.completed, kTenants * static_cast<std::uint64_t>(kPerTenant));
  EXPECT_EQ(ok.load() + cb_ok.load(), st.completed);
  EXPECT_EQ(st.rejected_queue_full, 0u);
  EXPECT_GT(st.executor.cache.entries, 0u);  // PlanCache::stats() surfaced
  server.shutdown();
}

TEST(Serve, ConstructionKeepsAForcedKernelIsa) {
  // Regression: the executor constructor re-read C64FFT_ISA, so building
  // an executor, or a server owning one, silently undid
  // kernels::set_kernel_isa(). Force a tier other than the one the
  // environment resolves (on a scalar-only host there is none) and check
  // that it holds across both constructions.
  const util::IsaLevel saved = fft::kernels::active_kernel_isa();
  const util::IsaLevel forced =
      util::isa_from_env() == util::IsaLevel::kScalar
          ? util::best_supported_isa()
          : util::IsaLevel::kScalar;
  ASSERT_EQ(fft::kernels::set_kernel_isa(forced), forced);
  {
    fft::FftExecutor executor;
    EXPECT_EQ(fft::kernels::active_kernel_isa(), forced) << "executor";
  }
  {
    FftServer server(ServerOptions{});
    EXPECT_EQ(fft::kernels::active_kernel_isa(), forced) << "owned server";
    server.shutdown();
  }
  fft::kernels::set_kernel_isa(saved);
}

}  // namespace
}  // namespace c64fft::serve
