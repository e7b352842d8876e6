#include "codelet/host_runtime.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <utility>

#include "codelet/ws_deque.hpp"

namespace c64fft::codelet {

namespace {

// One cache line per worker: the deque plus the phase-local tallies the
// runtime harvests after quiescence.
struct alignas(64) WorkerState {
  WorkStealingDeque deque;
  std::atomic<std::uint64_t> executed{0};
  std::atomic<std::uint64_t> steals{0};
};

}  // namespace

// State shared between the run_phase caller (worker 0) and the persistent
// worker threads. The hot path (own-deque push/pop, steals, the pending
// count) is lock-free; the two mutexes guard only the cold paths — seed
// injection and condvar parking.
namespace detail {

struct HostRuntimeShared {
  explicit HostRuntimeShared(unsigned workers) : states(workers) {
    for (auto& s : states) s = std::make_unique<WorkerState>();
  }

  std::vector<std::unique_ptr<WorkerState>> states;

  // Global injection queue: phase seeds, handed out in PoolPolicy order.
  // Always locked, never checked racily: the mutex total order is what
  // separates "worker saw the seeds" from "worker parked before they
  // arrived, so the seeder's signal bump lands after the worker's s0" —
  // a lock-free emptiness hint here could park a worker forever. The
  // queued seeds are inject[inject_head, size): a vector keeps its
  // capacity across phases, so seeding a phase allocates nothing in
  // steady state, where a std::deque cycled FIFO frees and re-allocates a
  // node every phase.
  std::mutex inject_mutex;
  std::vector<CodeletKey> inject;
  std::size_t inject_head = 0;
  std::atomic<PoolPolicy> policy{PoolPolicy::kFifo};

  // Current phase. `pending` counts queued + executing codelets; the phase
  // is over exactly when it reaches zero (every queued item was counted
  // before it became visible, so zero cannot be observed early).
  std::atomic<const CodeletBodyRef*> body{nullptr};
  std::atomic<std::int64_t> pending{0};
  std::atomic<bool> failed{false};
  std::mutex error_mutex;
  std::exception_ptr error;

  // Parking. `signal` and `sleepers` are both seq_cst so that for any
  // push/park race, either the pusher sees the sleeper (and notifies) or
  // the sleeper sees the new signal (and skips the wait) — the classic
  // Dekker-style handshake.
  std::mutex park_mutex;
  std::condition_variable cv;
  std::atomic<std::uint64_t> signal{0};
  std::atomic<int> sleepers{0};
  std::atomic<bool> stop{false};

  void notify_work() {
    // A one-worker team has nobody to wake (the run_phase caller can never
    // be parked while it is the thread pushing) — skip the seq_cst traffic.
    if (states.size() == 1) return;
    signal.fetch_add(1, std::memory_order_seq_cst);
    if (sleepers.load(std::memory_order_seq_cst) > 0) {
      std::lock_guard lock(park_mutex);
      cv.notify_all();
    }
  }

  bool pop_inject(CodeletKey& out) {
    std::lock_guard lock(inject_mutex);
    if (inject_head == inject.size()) return false;
    if (policy.load(std::memory_order_relaxed) == PoolPolicy::kLifo) {
      out = inject.back();
      inject.pop_back();
    } else {
      out = inject[inject_head++];
    }
    return true;
  }

  // Own deque first (LIFO cascade), then the injection queue (seed
  // order), then a steal sweep over the other workers. The sweep repeats
  // while any victim reports a lost race — losing means someone else made
  // progress, not that the system is empty.
  bool acquire_work(unsigned w, CodeletKey& out) {
    const unsigned n = static_cast<unsigned>(states.size());
    if (n == 1) {
      // No thief can exist: take the fence-free owner pop.
      if (states[w]->deque.pop_unsynchronized(out)) return true;
      return pop_inject(out);
    }
    if (states[w]->deque.pop(out)) return true;
    if (pop_inject(out)) return true;
    bool lost = true;
    while (lost) {
      lost = false;
      for (unsigned i = 1; i < n; ++i) {
        const unsigned victim = (w + i) % n;
        switch (states[victim]->deque.steal(out)) {
          case WorkStealingDeque::StealResult::kStolen:
            states[w]->steals.fetch_add(1, std::memory_order_relaxed);
            return true;
          case WorkStealingDeque::StealResult::kLost:
            lost = true;
            break;
          case WorkStealingDeque::StealResult::kEmpty:
            break;
        }
      }
    }
    return false;
  }

  // Run one acquired codelet and retire it. After a failure the phase
  // keeps draining, but remaining codelets are discarded unexecuted.
  void execute(unsigned w, CodeletKey key, Pusher& pusher) {
    if (!failed.load(std::memory_order_acquire)) {
      const CodeletBodyRef* b = body.load(std::memory_order_acquire);
      try {
        (*b)(key, w, pusher);
        states[w]->executed.fetch_add(1, std::memory_order_relaxed);
      } catch (...) {
        {
          std::lock_guard lock(error_mutex);
          if (!error) error = std::current_exception();
        }
        failed.store(true, std::memory_order_release);
      }
    }
    if (pending.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Phase drained: wake everyone (parked workers re-park; a parked
      // run_phase caller returns).
      signal.fetch_add(1, std::memory_order_seq_cst);
      std::lock_guard lock(park_mutex);
      cv.notify_all();
    }
  }
};

}  // namespace detail

namespace {

using detail::HostRuntimeShared;

// Pusher for the work-stealing path: enabled children go to the enabling
// worker's own deque (lock-free), counted into `pending` *before* they
// become stealable so quiescence can never be observed early.
class WorkerPusher final : public Pusher {
 public:
  WorkerPusher(HostRuntimeShared& sh, unsigned w) : sh_(sh), w_(w) {}

  void push(CodeletKey ready) override {
    sh_.pending.fetch_add(1, std::memory_order_relaxed);
    sh_.states[w_]->deque.push(ready);
    sh_.notify_work();
  }

  void push_batch(std::span<const CodeletKey> batch) override {
    if (batch.empty()) return;
    sh_.pending.fetch_add(static_cast<std::int64_t>(batch.size()),
                          std::memory_order_relaxed);
    for (CodeletKey k : batch) sh_.states[w_]->deque.push(k);
    sh_.notify_work();  // one wake for the whole sibling group
  }

 private:
  HostRuntimeShared& sh_;
  unsigned w_;
};

// Persistent worker thread: hunt for work, park when there is none, exit
// when the runtime is destroyed. Workers do not track phase boundaries —
// work is work, whichever phase injected it.
void worker_main(HostRuntimeShared& sh, unsigned w) {
  WorkerPusher pusher(sh, w);
  while (!sh.stop.load(std::memory_order_acquire)) {
    CodeletKey key;
    if (sh.acquire_work(w, key)) {
      sh.execute(w, key, pusher);
      continue;
    }
    const std::uint64_t s0 = sh.signal.load(std::memory_order_seq_cst);
    if (sh.acquire_work(w, key)) {  // re-check against a pre-s0 push
      sh.execute(w, key, pusher);
      continue;
    }
    std::unique_lock lock(sh.park_mutex);
    sh.sleepers.fetch_add(1, std::memory_order_seq_cst);
    sh.cv.wait(lock, [&] {
      return sh.signal.load(std::memory_order_seq_cst) != s0 ||
             sh.stop.load(std::memory_order_relaxed);
    });
    sh.sleepers.fetch_sub(1, std::memory_order_relaxed);
  }
}

}  // namespace

namespace {
std::atomic<std::uint64_t> g_teams_created{0};
}

std::uint64_t HostRuntime::teams_created() noexcept {
  return g_teams_created.load(std::memory_order_relaxed);
}

HostRuntime::HostRuntime(unsigned workers)
    : workers_(workers), per_worker_(workers, 0) {
  if (workers == 0) throw std::invalid_argument("HostRuntime: zero workers");
  g_teams_created.fetch_add(1, std::memory_order_relaxed);
  shared_ = std::make_unique<detail::HostRuntimeShared>(workers);
  threads_.reserve(workers - 1);
  for (unsigned w = 1; w < workers; ++w)
    threads_.emplace_back([this, w] { worker_main(*shared_, w); });
}

HostRuntime::~HostRuntime() {
  shared_->stop.store(true, std::memory_order_release);
  shared_->notify_work();
  for (auto& t : threads_) t.join();
}

double HostRuntime::balance_ratio() const noexcept {
  std::uint64_t total = 0, mx = 0;
  for (auto v : per_worker_) {
    total += v;
    mx = std::max(mx, v);
  }
  if (total == 0) return 1.0;
  return static_cast<double>(mx) * workers_ / static_cast<double>(total);
}

void HostRuntime::set_phase_hook(PhaseHook hook) {
  phase_hook_ = std::move(hook);
}

void HostRuntime::run_phase_ref(std::span<const CodeletKey> seeds,
                                PoolPolicy policy, CodeletBodyRef body) {
  // Timing only exists when someone listens: the hot no-hook path pays no
  // clock reads. The hook fires after the drain but before any captured
  // codelet exception propagates, so a metrics layer sees failed phases.
  if (!phase_hook_) {
    drain(seeds, policy, body);
    return;
  }
  PhaseStats stats;
  stats.seeds = seeds.size();
  const std::uint64_t executed_before = executed_;
  const auto t0 = std::chrono::steady_clock::now();
  try {
    drain(seeds, policy, body);
  } catch (...) {
    stats.executed = executed_ - executed_before;
    stats.nanos = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    phase_hook_(stats);
    throw;
  }
  stats.executed = executed_ - executed_before;
  stats.nanos = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - t0)
          .count());
  phase_hook_(stats);
}

void HostRuntime::drain(std::span<const CodeletKey> seeds, PoolPolicy policy,
                        const CodeletBodyRef& body) {
  detail::HostRuntimeShared& sh = *shared_;
  if (seeds.empty()) return;

  sh.policy.store(policy, std::memory_order_relaxed);
  sh.failed.store(false, std::memory_order_relaxed);
  sh.error = nullptr;
  sh.body.store(&body, std::memory_order_release);
  sh.pending.store(static_cast<std::int64_t>(seeds.size()),
                   std::memory_order_release);
  {
    std::lock_guard lock(sh.inject_mutex);
    sh.inject.assign(seeds.begin(), seeds.end());
    sh.inject_head = 0;
  }
  sh.notify_work();

  // The caller participates as worker 0 until quiescence.
  WorkerPusher pusher(sh, 0);
  while (sh.pending.load(std::memory_order_acquire) != 0) {
    CodeletKey key;
    if (sh.acquire_work(0, key)) {
      sh.execute(0, key, pusher);
      continue;
    }
    const std::uint64_t s0 = sh.signal.load(std::memory_order_seq_cst);
    if (sh.pending.load(std::memory_order_acquire) == 0) break;
    if (sh.acquire_work(0, key)) {
      sh.execute(0, key, pusher);
      continue;
    }
    std::unique_lock lock(sh.park_mutex);
    sh.sleepers.fetch_add(1, std::memory_order_seq_cst);
    sh.cv.wait(lock, [&] {
      return sh.signal.load(std::memory_order_seq_cst) != s0 ||
             sh.pending.load(std::memory_order_acquire) == 0;
    });
    sh.sleepers.fetch_sub(1, std::memory_order_relaxed);
  }

  sh.body.store(nullptr, std::memory_order_relaxed);
  for (unsigned w = 0; w < workers_; ++w) {
    WorkerState& st = *sh.states[w];
    const std::uint64_t e = st.executed.load(std::memory_order_relaxed);
    const std::uint64_t s = st.steals.load(std::memory_order_relaxed);
    st.executed.store(0, std::memory_order_relaxed);
    st.steals.store(0, std::memory_order_relaxed);
    per_worker_[w] += e;
    executed_ += e;
    steals_ += s;
  }
  if (sh.failed.load(std::memory_order_acquire)) {
    std::exception_ptr e;
    {
      std::lock_guard lock(sh.error_mutex);
      e = sh.error;
      sh.error = nullptr;
    }
    if (e) std::rethrow_exception(e);
  }
}

}  // namespace c64fft::codelet
