#pragma once
// Multi-tenant async serving front-end over FftExecutor.
//
// The executor made single transforms cheap; what it still charges per
// call is dispatch overhead — the executor phase mutex, the plan-cache
// acquire, and a scheduler phase with its worker wake and its barrier. A
// process serving MANY independent clients pays that per request.
// FftServer amortizes it across clients the same way forward_batch
// amortizes it across one caller's transforms: submissions land in
// priority lanes, a dispatcher thread waits out a bounded coalescing
// window, groups the requests it drains by exact (n, precision,
// direction), and runs the whole round as ONE FftExecutor::run_groups
// call — one lock, one plan acquire per group, and one scheduler phase
// for every transform of every group. A round that also holds
// tile-pipelined groups (fft::tile_pipelined: large-N groups with their
// own phases) runs them in a second call, after the first call's
// requests have completed, so they never hold up the round's small
// requests. Coalescing never changes results: batched execution is
// bit-identical per transform to a loop of single calls (test_serve
// asserts this for both precisions).
//
// Failure is per group: when a group's plan entry cannot be built,
// run_groups reports it in that group's error(), every request of the
// group completes kError, and the round's other groups run and complete
// normally. Only an error of a call as a whole (one its run_groups
// throws) fails every request of that call.
//
// Admission control is reject-based backpressure: an exhausted slot pool
// fails submit() with a typed SubmitStatus immediately — requests
// already admitted are never dropped (shutdown() drains them). Per-tenant
// quotas bound the two shared resources a tenant can otherwise
// monopolize: arena bytes (BufferArena) and distinct plan-cache shapes
// (kPlanQuotaExceeded before a tenant's shape churn can thrash the LRU
// plan cache for everyone else).
//
// The steady-state submit→complete path — submit(), lane push, drain,
// group, batch call through the executor's cached plan, completion
// callback/ticket wake — performs zero heap allocations and zero copies
// of signal data (test_serve_alloc counts allocations to prove it). All
// queues, slots, span scratch, and histograms are sized once at
// construction. See DESIGN.md "Serving front-end".
//
// The server owns its executor (one team of ServerOptions::workers
// threads that every batch runs on) for its whole life: shutdown() drains
// the lanes, joins the dispatcher, then shuts the executor's team down.

#include <array>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "fft/executor.hpp"
#include "fft/types.hpp"
#include "serve/arena.hpp"
#include "serve/metrics.hpp"

namespace c64fft::serve {

/// Priority lanes, drained strictly in this order each dispatch round.
/// Starvation of kBulk under sustained kInteractive load is by design —
/// the bound is the shared slot pool, not fairness.
enum class Lane : std::uint8_t { kInteractive = 0, kNormal = 1, kBulk = 2 };
inline constexpr std::size_t kLaneCount = 3;

enum class Direction : std::uint8_t { kForward, kInverse };

/// Typed admission verdicts. Everything except kAccepted is an immediate
/// reject — the request was NOT enqueued and the caller's buffer was not
/// touched.
enum class SubmitStatus : std::uint8_t {
  kAccepted,
  /// The shared slot pool is full (backpressure).
  kQueueFull,
  /// shutdown() has begun.
  kShuttingDown,
  /// The span is null, or its length is one fft::validate_fft_shape
  /// rejects (fft::fft_size_supported: N < 2, or past its route's limit).
  /// Composite and prime lengths are ACCEPTED (the executor runs them on
  /// mixed-radix/Bluestein plans).
  kInvalidSize,
  /// TenantId was never minted by add_tenant().
  kUnknownTenant,
  /// Request would be the tenant's (max_plan_shapes + 1)-th distinct
  /// (n, precision) shape.
  kPlanQuotaExceeded,
};

const char* to_string(SubmitStatus s) noexcept;

enum class RequestStatus : std::uint8_t {
  kOk,
  /// The request's group could not run (its plan build threw), or the
  /// round's executor call threw; shape errors are caught at submit, so
  /// this is unexpected. The buffer contents are unspecified.
  kError,
};

struct Completion {
  RequestStatus status = RequestStatus::kOk;
  /// submit() to completion, nanoseconds.
  std::uint64_t latency_ns = 0;
};

/// Completion callback: plain function pointer + context so registering
/// one never allocates (a capturing std::function could). Invoked on the
/// dispatcher thread — keep it short and never call back into submit()
/// from it with blocking expectations.
using CompletionFn = void (*)(void* ctx, const Completion& done);

struct TenantQuota {
  /// Arena bytes the tenant may pin concurrently (whole slabs are
  /// charged). 0 forbids arena leases but still allows submits of
  /// caller-owned buffers.
  std::size_t max_arena_bytes = std::size_t{8} << 20;
  /// Distinct (n, precision) plan shapes the tenant may ever submit.
  std::size_t max_plan_shapes = 4;
};

struct ServerOptions {
  /// Shared request-slot pool size == max requests in flight (queued +
  /// being executed) across all lanes. Every lane ring holds this many,
  /// so backpressure comes from the pool alone.
  std::size_t queue_capacity = 256;
  /// How long the dispatcher holds an under-full batch open waiting for
  /// more submissions to coalesce. 0 dispatches immediately (the
  /// uncoalesced baseline mode of tools/fft_loadgen).
  std::uint32_t coalesce_window_us = 50;
  /// Largest number of requests drained per dispatch round (and the
  /// upper bound on the coalescing factor).
  std::uint32_t max_coalesce = 64;
  /// Team size of the server's executor, which every batch runs on, in
  /// [1, codelet::Team::kMaxWorkers]. 1 (default) runs every batch as a
  /// plain loop of whole transforms, which a single hardware thread
  /// wants; the coalescing win is then purely amortized dispatch.
  unsigned workers = 1;
  /// Optional allocation-counter sampler (returns the CALLING thread's
  /// count; see serve/alloc_probe.hpp). When set, the dispatcher
  /// brackets every executor call with it and splits its own thread's
  /// allocations into ServerStats::executor_allocs (inside the
  /// executor: plan builds and first-use scratch, then nothing — a warm
  /// call allocates on no route and no team size) and
  /// ServerStats::dispatch_allocs (everything else: drain, group,
  /// complete, callbacks — the serving layer's own count). The
  /// zero-allocation contract says neither moves in steady state.
  /// A function pointer, not the probe function itself, because the
  /// probe is implemented by the BINARY (one TU defines
  /// C64FFT_ALLOC_PROBE_IMPLEMENT), never by this library.
  std::uint64_t (*alloc_probe)() noexcept = nullptr;
  ArenaOptions arena;
};

struct ServerStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t rejected_queue_full = 0;
  std::uint64_t rejected_invalid = 0;
  std::uint64_t rejected_shutdown = 0;
  std::uint64_t rejected_tenant = 0;
  std::uint64_t rejected_plan_quota = 0;
  /// Coalesced groups the dispatcher formed (one per exact (n, precision,
  /// direction) key of a round); completed / batches is the realized
  /// coalescing factor.
  std::uint64_t batches = 0;
  double coalescing_factor = 0.0;
  /// Dispatch rounds: one drain and one executor call each.
  std::uint64_t rounds = 0;
  /// Scheduler phases / codelets observed through the executor's phase
  /// hook.
  std::uint64_t phases = 0;
  std::uint64_t codelets = 0;
  std::uint64_t queue_depth = 0;  ///< requests queued right now
  std::array<std::uint64_t, kLaneCount> lane_depth{};
  /// Dispatcher-thread allocations OUTSIDE executor calls (the serving
  /// layer's own; 0 in steady state) and INSIDE them. Only counted when
  /// ServerOptions::alloc_probe is set; 0 otherwise.
  std::uint64_t dispatch_allocs = 0;
  std::uint64_t executor_allocs = 0;
  LatencySnapshot latency;
  ArenaStats arena;
  fft::ExecutorStats executor;
};

class FftServer;

/// Move-only completion handle for callback-less submissions. wait()
/// blocks for the result and recycles the request slot; a destroyed
/// un-waited ticket waits first (so dropping one never leaks a slot).
class Ticket {
 public:
  Ticket() = default;
  Ticket(const Ticket&) = delete;
  Ticket& operator=(const Ticket&) = delete;
  Ticket(Ticket&& other) noexcept
      : server_(other.server_), slot_(other.slot_) {
    other.server_ = nullptr;
  }
  Ticket& operator=(Ticket&& other) noexcept;
  ~Ticket();

  bool valid() const noexcept { return server_ != nullptr; }
  explicit operator bool() const noexcept { return valid(); }

  /// Block until the request completes; allocation-free. Invalidates the
  /// ticket (the slot returns to the pool).
  Completion wait();

 private:
  friend class FftServer;
  Ticket(FftServer* server, std::uint32_t slot) noexcept
      : server_(server), slot_(slot) {}

  FftServer* server_ = nullptr;
  std::uint32_t slot_ = 0;
};

struct SubmitResult {
  SubmitStatus status = SubmitStatus::kShuttingDown;
  /// Valid only when status == kAccepted and no callback was given.
  Ticket ticket;
};

class FftServer {
 public:
  explicit FftServer(const ServerOptions& opts = {});
  ~FftServer();

  FftServer(const FftServer&) = delete;
  FftServer& operator=(const FftServer&) = delete;

  /// Mint a tenant (registration-time; allocates its quota tables).
  TenantId add_tenant(const TenantQuota& quota);

  /// The zero-copy staging arena. Typical flow: lease, fill in place,
  /// submit(lease.as<cplx>()), read the transform back from the lease.
  BufferArena& arena() noexcept { return arena_; }

  /// Asynchronous in-place transform of `data` (which must stay alive
  /// and untouched until completion). Allocation-free. With `cb` the
  /// completion is delivered on the dispatcher thread and the returned
  /// ticket is invalid; without it, wait on the ticket.
  SubmitResult submit(TenantId tenant, std::span<fft::cplx> data,
                      Direction dir, Lane lane = Lane::kNormal,
                      CompletionFn cb = nullptr, void* ctx = nullptr);
  SubmitResult submit(TenantId tenant, std::span<fft::cplx32> data,
                      Direction dir, Lane lane = Lane::kNormal,
                      CompletionFn cb = nullptr, void* ctx = nullptr);

  /// Stop admitting (subsequent submits reject with kShuttingDown),
  /// drain every admitted request to completion, join the dispatcher,
  /// then shut the executor's team down. Idempotent; safe to race with
  /// submit() from any thread.
  void shutdown();

  bool accepting() const noexcept {
    return accepting_.load(std::memory_order_acquire);
  }

  /// The server's own executor (its stats, its phase hook).
  fft::FftExecutor& executor() noexcept { return exec_; }

  ServerStats stats() const;

 private:
  friend class Ticket;

  struct Slot {
    // Request (written by submit under admit_mutex_, read by dispatcher).
    void* data = nullptr;
    std::uint64_t n = 0;
    fft::Precision precision = fft::Precision::kF64;
    Direction dir = Direction::kForward;
    TenantId tenant = 0;
    CompletionFn cb = nullptr;
    void* ctx = nullptr;
    std::chrono::steady_clock::time_point t_submit;
    // Completion rendezvous (ticket mode only).
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    Completion result;
  };

  /// Fixed-capacity FIFO of slot indices (one per lane).
  struct Ring {
    std::vector<std::uint32_t> buf;
    std::size_t head = 0;
    std::size_t count = 0;

    bool empty() const noexcept { return count == 0; }
    void push(std::uint32_t v) noexcept {
      buf[(head + count) % buf.size()] = v;
      ++count;
    }
    std::uint32_t pop() noexcept {
      const std::uint32_t v = buf[head];
      head = (head + 1) % buf.size();
      --count;
      return v;
    }
  };

  struct TenantState {
    TenantQuota quota;
    /// Distinct shapes seen (reserved to max_plan_shapes at add_tenant,
    /// so the admission-path push_back never reallocates).
    std::vector<std::pair<std::uint64_t, fft::Precision>> shapes;
  };

  SubmitResult submit_impl(TenantId tenant, void* data, std::uint64_t n,
                           fft::Precision precision, Direction dir, Lane lane,
                           CompletionFn cb, void* ctx);
  void dispatch_loop();
  /// Groups the round's `count` drained requests, runs them as one
  /// executor call (two when the round mixes serial and tile-pipelined
  /// groups, the serial ones first) and completes each call's requests
  /// as it returns. Returns the dispatcher thread's allocation count
  /// spent inside the calls (0 when no alloc_probe is configured).
  std::uint64_t process_batch(std::size_t count);
  void complete(std::uint32_t slot_idx, RequestStatus status);
  void recycle(std::uint32_t slot_idx);
  Completion ticket_wait(std::uint32_t slot_idx);

  ServerOptions opts_;
  BufferArena arena_;
  fft::FftExecutor exec_;

  /// Serializes shutdown() callers (join happens exactly once).
  std::mutex shutdown_mutex_;

  // Admission state.
  mutable std::mutex admit_mutex_;
  std::condition_variable dispatch_cv_;
  std::atomic<bool> accepting_{true};
  std::vector<std::uint32_t> free_;  // slot freelist (stack)
  std::array<Ring, kLaneCount> lanes_;
  std::size_t depth_ = 0;  // sum of lane counts
  std::vector<TenantState> tenants_;
  std::uint64_t submitted_ = 0;
  std::array<std::uint64_t, 5> rejects_{};  // indexed by SubmitStatus - 1

  std::unique_ptr<Slot[]> slots_;

  // Dispatcher-thread scratch, sized once in the constructor.
  std::vector<std::uint32_t> batch_;      // drained slot indices
  std::vector<std::uint8_t> grouped_;     // per-batch "already grouped" marks
  std::vector<std::uint32_t> round_;      // the round's slots, group by group
  std::vector<fft::BatchGroup> groups_;   // the round's groups
  std::vector<std::span<fft::cplx>> spans64_;
  std::vector<std::span<fft::cplx32>> spans32_;

  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> rounds_{0};
  std::atomic<std::uint64_t> dispatch_allocs_{0};
  std::atomic<std::uint64_t> executor_allocs_{0};
  std::atomic<std::uint64_t> phases_{0};
  std::atomic<std::uint64_t> codelets_{0};
  LatencyHistogram latency_;

  std::thread dispatcher_;
};

}  // namespace c64fft::serve
