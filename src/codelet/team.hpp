#pragma once
// Flat worker team: the one threaded operation production needs.
//
// Every phase the executor runs is a flat parallel loop — a batch of
// whole transforms, the chunks of one mixed-radix stage, the gather and
// column blocks of a hierarchical pipeline, then its row blocks — so the
// team offers exactly one operation: parallel_for(count, body), which
// calls body(index, worker) once for every index in [0, count) and
// returns when the last index has finished. Indices are claimed from one
// shared atomic counter in no fixed order, which is the paper's free pop
// order of a shared ready pool; the fft_host harness builds its
// dependency-counted pool on top of one parallel_for (fft::run_pool_phase).
//
// The team parks workers - 1 persistent threads between calls and the
// caller works as worker 0, so a one-worker team spawns no thread and runs
// the loop inline. The body is borrowed, never copied: a call allocates
// nothing. See DESIGN.md "Host runtime architecture".

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace c64fft::codelet {

/// What one parallel_for call looked like, handed to the phase hook: its
/// index count, how many bodies returned normally (fewer than `seeds` when
/// one threw), and the caller-observed wall time of the whole call.
struct PhaseStats {
  std::uint64_t seeds = 0;
  std::uint64_t executed = 0;
  std::uint64_t nanos = 0;
};

/// Phase completion hook (see Team::set_phase_hook). Runs on the calling
/// thread after the last index finished, before a captured exception is
/// rethrown — so a metrics layer observes failed phases too.
using PhaseHook = std::function<void(const PhaseStats&)>;

class Team {
 public:
  /// Largest team a constructor accepts: above the paper's 156 worker
  /// threads, and far above any core count this library is sized for.
  static constexpr unsigned kMaxWorkers = 256;

  /// Spawns `workers - 1` parked threads; the parallel_for caller is
  /// worker 0. Throws std::invalid_argument for zero or more than
  /// kMaxWorkers workers before starting any thread. If a spawn throws,
  /// the threads already started are joined and the error rethrown.
  explicit Team(unsigned workers);
  ~Team();

  Team(const Team&) = delete;
  Team& operator=(const Team&) = delete;

  unsigned workers() const noexcept { return workers_; }

  /// Runs body(index, worker) once for every index in [0, count), with
  /// worker < workers(), and returns when all of them have finished: a
  /// call is a barrier. The first exception a body throws is rethrown
  /// here after the remaining indices are skipped; the team stays usable.
  /// Single caller at a time. A count of 2^31 or more throws
  /// std::length_error on a multi-worker team (the claim word's range).
  template <typename Body>
  void parallel_for(std::uint64_t count, Body&& body) {
    using F = std::remove_reference_t<Body>;
    run(count,
        BodyRef{const_cast<void*>(static_cast<const void*>(std::addressof(body))),
                [](void* obj, std::uint64_t i, unsigned w) {
                  (*static_cast<F*>(obj))(i, w);
                }});
  }

  /// Install (or clear, with an empty function) the hook called once per
  /// parallel_for on the calling thread. Must not be called concurrently
  /// with parallel_for; the hook must not re-enter the team.
  void set_phase_hook(PhaseHook hook) { hook_ = std::move(hook); }

  /// Process-wide count of Team constructions. The executor's team-spawn
  /// regression guard asserts this stays flat across steady-state cached
  /// transforms (see tests/test_executor.cpp).
  static std::uint64_t teams_created() noexcept;

 private:
  /// Non-owning, type-erased reference to a parallel_for body.
  struct BodyRef {
    void* obj;
    void (*call)(void*, std::uint64_t, unsigned);
  };

  void run(std::uint64_t count, BodyRef body);
  void run_parallel(std::uint64_t count, BodyRef body);
  /// Claims and runs indices until the claim word is exhausted; true when
  /// this worker finished the call's last index.
  bool work(unsigned worker);
  void worker_main(unsigned worker);
  void stop_and_join();

  unsigned workers_;
  PhaseHook hook_;

  // The current call. `claim` and `bound` both carry the call's
  // generation in their high 32 bits; the low 32 bits are the next index
  // to hand out and the call's count. A claim is valid only when its tag
  // matches the bound's and its index is below that bound, so a worker
  // that wakes late can never run one call's index against another
  // call's count or body. `body_` is written before `claim` is published
  // and read only after a valid claim, which keeps its call alive. The
  // claim word, which every claim writes, sits on its own cache line.
  alignas(64) std::atomic<std::uint64_t> claim_{0};
  alignas(64) std::atomic<std::uint64_t> bound_{0};
  std::uint32_t generation_ = 0;
  BodyRef body_{};
  std::atomic<std::uint64_t> remaining_{0};
  std::atomic<std::uint64_t> skipped_{0};
  std::atomic<bool> failed_{false};
  std::mutex error_mutex_;
  std::exception_ptr error_;  // the call's first exception; error_mutex_

  // Parking: workers sleep until `signal_` moves (once per call) or
  // `stop_` is set.
  std::mutex park_mutex_;
  std::uint64_t signal_ = 0;  // guarded by park_mutex_
  bool stop_ = false;         // guarded by park_mutex_
  std::condition_variable park_cv_;

  // The caller waits here until a worker that finished the call's last
  // index sets `done_`.
  std::mutex done_mutex_;
  bool done_ = false;  // guarded by done_mutex_
  std::condition_variable done_cv_;

  std::vector<std::thread> threads_;
};

}  // namespace c64fft::codelet
