#pragma once
// Host codelet runtime: a persistent team of real std::thread workers
// executing codelets with actual arithmetic. This is the functional
// counterpart of the simulated machine — the same FFT variants run on it,
// which is how the library serves as a usable FFT on commodity multicore
// and how the simulator's kernels are known to be numerically correct.
//
// Scheduling: each worker owns a Chase-Lev deque (owner LIFO pop, thief
// FIFO steal); phase seeds sit in a global injection queue that hands
// them out in PoolPolicy order; and dynamically enabled codelets go to
// the enabling worker's own deque, so the hot push/pop path takes no
// lock. The pop order across workers is free — exactly the freedom the
// paper's fine-grain model grants (and the static race check proves
// safe). Workers that find no work park on a condition variable — the
// team is created once and reused across phases (and across run_phase
// calls), never respawned. The paper's strict single-pool orders ("fine
// best"/"fine worst") are experiment controls, not a runtime mode: the
// fft_host harness runs them on its own sequential pool
// (fft::run_phase_sequential). See DESIGN.md "Host runtime architecture".
//
// Phase semantics: run_phase() seeds the pool, lets the workers drain it
// (codelets may push further codelets), and returns when no codelet is
// queued or executing. A phase boundary therefore acts as the
// coarse-grain barrier of Alg. 1/Alg. 3; fully fine-grain algorithms use
// a single phase. The body is borrowed, never copied: seeding a phase
// allocates nothing in steady state.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "codelet/codelet.hpp"

namespace c64fft::codelet {

namespace detail {
struct HostRuntimeShared;  // worker-visible state; defined in host_runtime.cpp
}

/// Handed to the codelet body so it can enable children.
class Pusher {
 public:
  virtual ~Pusher() = default;
  virtual void push(CodeletKey ready) = 0;
  /// Enable a whole sibling group with one injection (one wake signal
  /// instead of one per child on the work-stealing path). Order within the
  /// batch is preserved.
  virtual void push_batch(std::span<const CodeletKey> batch) {
    for (CodeletKey k : batch) push(k);
  }
};

/// Codelet body: execute the codelet, then enable any children that became
/// ready (typically after DependencyCounters::arrive returns true).
using CodeletBody = std::function<void(CodeletKey, unsigned worker, Pusher&)>;

/// Non-owning, type-erased reference to a codelet body (any callable with
/// CodeletBody's signature) for the duration of one phase: what
/// run_phase's template front hands the workers, so a phase never copies
/// its body into a heap-allocated std::function. The referenced callable
/// must outlive the phase.
class CodeletBodyRef {
 public:
  template <typename F>
  explicit CodeletBodyRef(F& body) noexcept
      : obj_(const_cast<void*>(
            static_cast<const void*>(std::addressof(body)))),
        call_([](void* obj, CodeletKey key, unsigned worker, Pusher& pusher) {
          (*static_cast<F*>(obj))(key, worker, pusher);
        }) {}

  void operator()(CodeletKey key, unsigned worker, Pusher& pusher) const {
    call_(obj_, key, worker, pusher);
  }

 private:
  void* obj_;
  void (*call_)(void*, CodeletKey, unsigned, Pusher&);
};

/// What one completed phase looked like, handed to the completion hook:
/// how many codelets seeded it, how many executed to quiescence (fewer
/// than the total enabled when the phase failed mid-drain), and the
/// caller-observed wall time of the whole phase.
struct PhaseStats {
  std::uint64_t seeds = 0;
  std::uint64_t executed = 0;
  std::uint64_t nanos = 0;
};

/// Phase completion hook (see HostRuntime::set_phase_hook). Runs on the
/// run_phase caller thread after quiescence, before any captured codelet
/// exception is rethrown — so a metrics layer observes failed phases too.
using PhaseHook = std::function<void(const PhaseStats&)>;

class HostRuntime {
 public:
  /// Spawns `workers - 1` persistent worker threads (the run_phase caller
  /// is worker 0); they park between phases and die with the runtime.
  explicit HostRuntime(unsigned workers);
  ~HostRuntime();

  HostRuntime(const HostRuntime&) = delete;
  HostRuntime& operator=(const HostRuntime&) = delete;

  unsigned workers() const noexcept { return workers_; }

  /// Run one phase to quiescence. Exceptions thrown by `body` are captured
  /// on the worker and rethrown here after the phase drains. `body` is
  /// called by reference from every worker (see CodeletBodyRef), so a
  /// lambda or a CodeletBody runs without being copied.
  template <typename Body>
  void run_phase(std::span<const CodeletKey> seeds, PoolPolicy policy,
                 Body&& body) {
    run_phase_ref(seeds, policy, CodeletBodyRef(body));
  }

  /// Install (or clear, with an empty function) the phase completion hook:
  /// invoked once per run_phase, on the calling thread, after the phase
  /// drains. This is the completion seam the serving layer's metrics hang
  /// off — scheduler phases per second and codelets per phase without any
  /// polling. Must not be called concurrently with run_phase (the
  /// executor installs it under the same mutex that serializes phases);
  /// the hook itself must not re-enter run_phase.
  void set_phase_hook(PhaseHook hook);

  /// Total codelets executed across all phases so far.
  std::uint64_t executed() const noexcept { return executed_; }

  /// Codelets executed per worker across all phases — the dynamic
  /// workload-balance evidence the fine-grain model is known for (the
  /// prior-work claim the paper builds on).
  const std::vector<std::uint64_t>& executed_per_worker() const noexcept {
    return per_worker_;
  }

  /// max/mean ratio of the per-worker counts (1.0 = perfectly balanced).
  double balance_ratio() const noexcept;

  /// Successful steals across all phases — the load-migration evidence
  /// of the work-stealing scheduler.
  std::uint64_t steals() const noexcept { return steals_; }

  /// Process-wide count of HostRuntime constructions. The executor's
  /// team-spawn regression guard asserts this stays flat across
  /// steady-state cached transforms (see tests/test_executor.cpp).
  static std::uint64_t teams_created() noexcept;

 private:
  void run_phase_ref(std::span<const CodeletKey> seeds, PoolPolicy policy,
                     CodeletBodyRef body);
  void drain(std::span<const CodeletKey> seeds, PoolPolicy policy,
             const CodeletBodyRef& body);

  unsigned workers_;
  std::unique_ptr<detail::HostRuntimeShared> shared_;
  std::vector<std::thread> threads_;
  std::uint64_t executed_ = 0;
  std::uint64_t steals_ = 0;
  std::vector<std::uint64_t> per_worker_;
  PhaseHook phase_hook_;
};

}  // namespace c64fft::codelet
