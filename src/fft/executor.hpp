#pragma once
// Cached-plan FFT executor: the steady-state entry point of the library.
// Plans and their twiddle and bit-reversal tables live in a thread-safe
// LRU PlanCache, and one lazily created persistent worker team is reused
// across transforms (and resized only when a call asks for a different
// team size), so a steady-state forward() spawns no thread and recomputes
// no trig.
//
// Every phase the executor runs is one flat parallel loop on its worker
// team (codelet::Team::parallel_for): no phase pushes work into another.
// Every call resolves its route and plan entries first, then runs one of
// two bodies. The serial whole-transform body runs every classic call and
// every Bluestein call whose convolution is classic, on every team and
// batch size: ONE phase with one index per transform, each run start to
// finish by the worker that claims it on that worker's scratch (a
// one-worker team runs the loop inline). That is the paper's codelet
// sized to what its local store holds (a cache-resident transform IS that
// codelet), so a single call is the B = 1 case of a batch. Mixed-radix
// calls take the same body unless one transform meets a multi-worker
// team; that one runs phased (digit reversal, then one phase per stage),
// kept for the large composites (N >= 10^5) where splitting one transform
// across workers beats the serial body.
// Both bodies compute the same butterflies in the same order, so a batch
// is bit-identical to a loop of single calls on any team. The paper's
// Alg. 2 (dependency-counted radix-64 codelets) runs only in the fft_host
// harness and the simulator.
//
// Large transforms route through the hierarchical path
// (PlanKind::kHierarchical): Bailey's four-step algebra over the balanced
// split N = n1*n2 — an n2-wide batch of n1-point column FFTs and an
// n1-wide batch of n2-point row FFTs, both classic cache-resident
// transforms, glued together by tile transposes that apply the
// inter-step twiddles on the fly, so no O(N) table is ever built for the
// large size — executed as two flat phases over tile blocks: first each
// block's gather-transpose and column sweep, then each block's fused
// twiddle-gather, row sweep and writeback. Every row block needs every
// column sweep, so the one barrier between the phases is the pipeline's
// only sync point. It has no serial body: the two phases run once per
// transform on every team. Routing is a function of N alone
// (routed_plan_kind): no option, env var or setter moves a size between
// plans. See DESIGN.md "Hierarchical large-N path".
//
// Precision: every entry point exists for cplx (f64) and cplx32 (f32).
// The two precisions dispatch through one shared member-template body
// (run_t<T> and friends, defined in executor.cpp), share the ONE
// persistent worker team and the plan cache (entries keyed by Precision),
// and keep separate per-worker numeric scratch (NumericState<T>) so a
// precision switch never respawns the team or clobbers the other width's
// buffers. See DESIGN.md "Precision-generic core".
//
// Concurrency: any number of caller threads may use one executor; a mutex
// serializes the phases (Team::parallel_for is single-caller by
// contract), while the PlanCache has its own finer lock. See DESIGN.md
// "Executor & plan cache".

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "codelet/team.hpp"
#include "fft/plan_cache.hpp"
#include "util/aligned_buffer.hpp"

namespace c64fft::fft {

/// Pow2 transforms with log2(N) >= this route through the hierarchical
/// path (PlanKind::kHierarchical); smaller ones run the
/// classic monolithic plan. 2^18 = 4 MiB of cplx data: at that size
/// the classic path's data + O(N) twiddle table are far beyond a typical
/// L2, while the decomposed sub-sweeps (512-point FFTs) stay
/// cache-resident. Measured on a 4-vCPU Xeon, a 2-worker team runs the
/// hierarchical route 1.14x faster than the classic plan at 2^18, and a
/// one-worker team runs the two about equally there — DESIGN.md §3.7.
/// (The f32 footprint at a given N is half this; the threshold stays
/// size-based for predictability.)
inline constexpr unsigned kDefaultHierarchicalThresholdLog2 = 18;

/// Chunk decomposition of the executor's data-parallel utility phases
/// (`chunks` codelets of `per` units each; the last chunk may be short).
/// Exposed so the static pipeline model (analysis::build_*_pipeline)
/// enumerates exactly the codelet grain the executor runs — these are
/// model-builder hooks, not tuning knobs.
struct SweepGrain {
  std::uint64_t chunks = 0;
  std::uint64_t per = 0;
};

/// Grain of a chunked permutation phase: always workers*4 chunk codelets
/// over n elements. The phased mixed-radix body runs its digit-reversal
/// gather at this grain (run_mixed_radix_locked), and fft_host its
/// bit-reversal, which the paper's phased hull models
/// (analysis::build_classic_pipeline).
SweepGrain bitrev_sweep_grain(std::uint64_t n, unsigned workers);

/// Tile-block grain of the hierarchical pipeline (run_hierarchical_locked)
/// for the split n1 x n2: the gather/column stages sweep the
/// n2 x n1 scratch in `blocks1` blocks of `block_rows1` rows (the last
/// block may be short), and the scatter/row stages sweep the n1 x n2
/// scratch in `blocks2` blocks of `block_rows2` rows. Block rows are
/// multiples of the transpose tile edge so no tile ever straddles two
/// blocks — that alignment is what makes the pipelined per-block tile
/// sweeps bit-identical to the full-matrix barrier passes.
struct HierarchicalGrain {
  std::uint64_t block_rows1 = 0;
  std::uint64_t blocks1 = 0;
  std::uint64_t block_rows2 = 0;
  std::uint64_t blocks2 = 0;
};

/// The grain policy, exported so the static pipeline model
/// (analysis::build_hierarchical_pipeline) enumerates exactly the blocks
/// the executor runs: a block's row panel targets half of `l2_bytes`
/// (leaving the other half for the destination tiles streaming through),
/// capped so at least workers*4 blocks exist to spread over the team,
/// rounded down to a tile-edge multiple.
HierarchicalGrain hierarchical_grain(std::uint64_t n1, std::uint64_t n2,
                                     unsigned workers, unsigned element_bytes,
                                     std::uint64_t l2_bytes);

/// The PlanKind the executor routes an n-point transform to — a function
/// of n alone. Non-pow2 sizes are decided by factorization: 7-smooth
/// composites run kMixedRadix, everything else kBluestein. Pow2 sizes
/// with log2(N) >= kDefaultHierarchicalThresholdLog2 run kHierarchical,
/// the rest kClassic; Bluestein's M-point convolution routes the same
/// way. Shared with fft_lint --plan-kind=auto and the static models.
PlanKind routed_plan_kind(std::uint64_t n);

struct ExecutorOptions {
  /// Team shape used by the option-less transform overloads (per-call
  /// HostFftOptions override it, recreating the team when they differ).
  /// In [1, codelet::Team::kMaxWorkers].
  unsigned workers = 4;
  /// Plan-cache capacity in entries (>= 1).
  std::size_t capacity = 16;
};

/// Thrown by every transform entry point after close(): the typed
/// "serving is over" error. Distinct from std::invalid_argument shape
/// errors so a serving front-end can map it to a clean shutdown rejection
/// instead of a client bug.
class ExecutorClosedError : public std::runtime_error {
 public:
  ExecutorClosedError() : std::runtime_error("FftExecutor: closed") {}
};

struct ExecutorStats {
  PlanCacheStats cache;
  /// Transforms dispatched one at a time / via batch submissions (both
  /// precisions; the plan cache distinguishes them by key).
  std::uint64_t transforms = 0;
  std::uint64_t batched = 0;
  /// Transforms that took the hierarchical pipelined path.
  std::uint64_t hierarchical = 0;
  /// Top-level transforms that ran a factorization-driven mixed-radix plan
  /// (every non-pow2 7-smooth size).
  std::uint64_t mixed_radix = 0;
  /// Top-level transforms that ran the Bluestein chirp-z path (prime and
  /// non-7-smooth sizes); the two internal pow2 convolution FFTs are not
  /// double-counted in transforms/hierarchical.
  std::uint64_t bluestein = 0;
  /// Worker teams this executor created over its lifetime.
  std::uint64_t teams_created = 0;
};

/// Test-only peer (tests/executor_test_peer.hpp): acquires plan entries of
/// a forced kind (a classic plan above the threshold, a hierarchical one
/// below it, a Bluestein convolution of either kind) and runs them
/// through the executor's own locked dispatch. No
/// public knob moves a size between routes.
struct FftExecutorTestPeer;

class FftExecutor {
 public:
  /// Throws std::invalid_argument unless opts.workers is in
  /// [1, codelet::Team::kMaxWorkers]. C64FFT_WORKERS, when set to a
  /// decimal in that range, overrides opts.workers here, at construction
  /// ONLY; an unset, empty, malformed or out-of-range value leaves it
  /// untouched. resize() is the way to change the team later.
  /// The process-wide kernel ISA is not touched: C64FFT_ISA resolves it
  /// lazily on first use, and kernels::set_kernel_isa() forces it.
  explicit FftExecutor(const ExecutorOptions& opts = {});
  ~FftExecutor();

  FftExecutor(const FftExecutor&) = delete;
  FftExecutor& operator=(const FftExecutor&) = delete;

  /// In-place transforms of any N >= 2 (smaller sizes throw
  /// std::invalid_argument). opts.workers selects the team; the
  /// option-less overloads use the ExecutorOptions default. A team size
  /// outside [1, codelet::Team::kMaxWorkers] throws std::invalid_argument
  /// and leaves the executor usable. The cplx32
  /// overloads are the f32 path — same plan algebra, f32
  /// twiddles/kernels, separate plan-cache entries.
  void forward(std::span<cplx> data, const HostFftOptions& opts);
  void forward(std::span<cplx> data);
  void forward(std::span<cplx32> data, const HostFftOptions& opts);
  void forward(std::span<cplx32> data);
  void inverse(std::span<cplx> data, const HostFftOptions& opts);
  void inverse(std::span<cplx> data);
  void inverse(std::span<cplx32> data, const HostFftOptions& opts);
  void inverse(std::span<cplx32> data);

  /// Batched transforms: every span is one independent transform; all must
  /// share one length >= 2 (throws std::invalid_argument otherwise). The
  /// batch runs as ONE phase with one whole-transform index per transform,
  /// with the plan and twiddle lookups amortized across the batch;
  /// hierarchical plans run their two phases per transform. Bit-identical
  /// per transform to a loop of single calls.
  void forward_batch(std::span<const std::span<cplx>> batch,
                     const HostFftOptions& opts);
  void forward_batch(std::span<const std::span<cplx>> batch);
  void forward_batch(std::span<const std::span<cplx32>> batch,
                     const HostFftOptions& opts);
  void forward_batch(std::span<const std::span<cplx32>> batch);
  void inverse_batch(std::span<const std::span<cplx>> batch,
                     const HostFftOptions& opts);
  void inverse_batch(std::span<const std::span<cplx>> batch);
  void inverse_batch(std::span<const std::span<cplx32>> batch,
                     const HostFftOptions& opts);
  void inverse_batch(std::span<const std::span<cplx32>> batch);

  /// Default team size for the option-less overloads; an existing team of
  /// a different size is dropped (and respawned lazily at next use).
  /// Rejects a size outside [1, codelet::Team::kMaxWorkers] like the
  /// constructor.
  void resize(unsigned workers);

  /// Team size the option-less overloads currently use (after the
  /// constructor's C64FFT_WORKERS read and any resize()). Read under the
  /// executor lock, so it never races resize().
  unsigned default_workers() const;

  /// Join and destroy the worker team (the plan cache survives). The next
  /// transform lazily spawns a fresh team — intended for tests and for
  /// quiescing the process.
  void shutdown();

  /// Terminal shutdown: like shutdown(), but transforms submitted after
  /// (or concurrently with) the call throw ExecutorClosedError instead of
  /// lazily respawning the team. This is the teardown-ordering fix for the
  /// serving path: before close(), a caller racing shutdown() would
  /// observe the joined team being respawned under it — a transform
  /// "completing" on a team the quiescing thread believed dead. After
  /// close() returns, teams_created never moves again. Irreversible for
  /// this executor instance; calls already executing a phase finish
  /// normally (close() waits for them via the phase mutex).
  void close();
  bool closed() const noexcept;

  /// Install a phase completion hook (codelet::PhaseHook) on the
  /// persistent team — re-installed automatically when the team is
  /// respawned after shutdown()/resize(). The serving layer's metrics use
  /// this to count scheduler phases and codelets without polling. Pass an
  /// empty function to clear.
  void set_phase_hook(codelet::PhaseHook hook);

  void clear_cache();
  ExecutorStats stats() const;

 private:
  friend struct FftExecutorTestPeer;

  /// Per-precision mutable working set: the per-worker split scratch of
  /// the whole-transform sweep, the hierarchical buffers and the
  /// per-worker `work` buffers below. One instance per element width so
  /// alternating precisions never thrash each other's allocations; the
  /// worker team stays shared (it is precision-independent). Every table
  /// lives in the plan entries.
  template <typename T>
  struct NumericState {
    /// Per-worker split scratch of run_transform_split: 3n scalars for the
    /// largest transform length n the worker has swept (the re/im planes
    /// plus the n/2-entry level twiddle span). Serves the serial pow2
    /// body, Bluestein's serial convolutions and the hierarchical column
    /// and row FFTs. Cache-line aligned, so the sweep's SIMD loads of the
    /// planes and the span never straddle two lines.
    std::vector<util::AlignedBuffer<T>> split;
    /// Hierarchical-path gather matrix (the n2 x n1 `s`). There is no
    /// second (n1 x n2) matrix: the fused row stage never materializes
    /// the twiddled transpose — each T4 gathers its own block of it into
    /// a per-worker panel (below). The buffer is madvise'd toward huge
    /// pages: the strided side of every gather/scatter tile walks `s` in
    /// 16-element chunks one row apart, and 2 MiB pages cut those walks'
    /// TLB misses by the page-size ratio.
    std::vector<cplx_t<T>> hier_scratch;
    /// Per-worker row panel of the fused T4 stage: block_rows2 contiguous
    /// n2-point rows, twiddle-gathered from `s`, swept in place, then
    /// transposed out to `data`. Sized for the largest (block_rows2 x n2)
    /// seen; L2-resident by the grain policy's construction.
    std::vector<std::vector<cplx_t<T>>> hier_panel;
    /// Per-worker route buffer: the mixed-radix digit-reversal target
    /// (stage 0 reads it back into `data`) or the Bluestein convolution
    /// buffer of length M = next_pow2(2n-1). The phased mixed-radix and
    /// hierarchical-convolution Bluestein bodies use index 0's; the
    /// serial body gives every worker its own, because whole transforms
    /// run concurrently.
    std::vector<std::vector<cplx_t<T>>> work;
  };

  template <typename T>
  NumericState<T>& num() {
    if constexpr (std::is_same_v<T, float>)
      return f32_;
    else
      return f64_;
  }

  codelet::Team& team(unsigned workers);
  /// Validates the batch, resolves its route and plan entries through the
  /// cache (before taking the lock), then runs dispatch_t.
  template <typename T>
  void run_t(std::span<const std::span<cplx_t<T>>> batch,
             const HostFftOptions& opts, TwiddleDirection dir);
  /// The locked dispatch over resolved entries: takes mutex_, re-checks
  /// close(), picks the body from the entry kinds (`conv` is Bluestein's
  /// convolution entry, else nullptr), runs it on a `workers` team and
  /// counts the batch into the stats. Unscaled, like every body below.
  template <typename T>
  void dispatch_t(const PlanEntry& entry, const PlanEntry* conv,
                  std::span<const std::span<cplx_t<T>>> batch,
                  unsigned workers, TwiddleDirection dir);
  /// The serial whole-transform body (mutex_ held) for classic,
  /// mixed-radix and Bluestein plans whose convolution is classic (`conv`
  /// is Bluestein's inner pow2 entry, else nullptr): ONE phase with one
  /// index per transform on per-worker scratch, for any batch size
  /// including one. The bodies below never scale — inverse normalization
  /// lives in the public wrappers only.
  template <typename T>
  void run_serial_locked(const PlanEntry& entry, const PlanEntry* conv,
                         std::span<const std::span<cplx_t<T>>> batch,
                         codelet::Team& team, TwiddleDirection dir);
  /// One hierarchical transform (mutex_ held): two flat phases of
  /// tile-block tasks — each column block's gather-transpose plus column
  /// sweep, then each row block's fused twiddle-gather, row sweep and
  /// writeback — instead of five barrier-separated full-array passes.
  /// Output is bit-identical across team sizes, block grains and kernel
  /// ISA tiers.
  template <typename T>
  void run_hierarchical_locked(const PlanEntry& entry, std::span<cplx_t<T>> data,
                               codelet::Team& team, TwiddleDirection dir);
  /// One phased mixed-radix transform (mutex_ held): digit-reversal
  /// permutation into the ping buffer as a chunked phase, then one
  /// data-parallel phase per stage over its butterfly groups (butterflies
  /// of one stage touch disjoint indices, so any schedule is race-free and
  /// bit-identical).
  template <typename T>
  void run_mixed_radix_locked(const PlanEntry& entry, std::span<cplx_t<T>> data,
                              codelet::Team& team, TwiddleDirection dir);
  /// One Bluestein chirp-z transform over a hierarchical convolution
  /// (mutex_ held): the chirp chain around two inner M-point pipelines on
  /// `conv`. A classic convolution runs the serial body instead.
  template <typename T>
  void run_bluestein_locked(const PlanEntry& entry, const PlanEntry& conv,
                            std::span<cplx_t<T>> data, codelet::Team& team,
                            TwiddleDirection dir);
  /// Join the team and drop the per-worker buffers (mutex_ held) — the
  /// shared body of shutdown() and close().
  void shutdown_locked();

  ExecutorOptions opts_;
  PlanCache cache_;
  /// Set by close(); checked (unlocked fast-fail plus the authoritative
  /// re-check under mutex_) by every transform dispatch.
  std::atomic<bool> closed_{false};

  /// Guards the team, the per-worker buffers, and phase execution.
  mutable std::mutex mutex_;
  std::unique_ptr<codelet::Team> team_;
  NumericState<double> f64_;
  NumericState<float> f32_;
  codelet::PhaseHook phase_hook_;
  std::uint64_t transforms_ = 0;
  std::uint64_t batched_ = 0;
  std::uint64_t hierarchical_ = 0;
  std::uint64_t mixed_radix_ = 0;
  std::uint64_t bluestein_ = 0;
  std::uint64_t teams_created_ = 0;
};

/// The process-wide executor the api.cpp wrappers dispatch through.
FftExecutor& default_executor();

}  // namespace c64fft::fft
