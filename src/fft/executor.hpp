#pragma once
// Cached-plan FFT executor: the steady-state entry point of the library.
// Plans and their twiddle and bit-reversal tables live in a thread-safe
// LRU PlanCache, and one lazily created persistent worker team of
// ExecutorOptions::workers threads is reused across transforms, so a
// steady-state forward() spawns no thread and recomputes no trig. A call
// that names another team size (HostFftOptions::workers != 0) respawns the
// team at that size. An executor has one owner and one lifecycle:
// construct, run, shutdown() (join the team; the next call respawns it),
// destroy.
//
// Every phase the executor runs is one flat parallel loop on its worker
// team (codelet::Team::parallel_for): no phase pushes work into another.
// A call is a list of groups (run_groups), each a batch of one length,
// precision and direction; forward/inverse and the *_batch calls are its
// one-group case. Every group resolves its route's plan entry first (one
// cache acquire: an entry pins whatever sub-entries its route runs), then
// the whole call runs ONE `serial` phase with one index per transform,
// whatever its group: every classic, mixed-radix and Bluestein-over-a-
// classic-convolution transform runs start to finish, inverse 1/N
// included, on the worker that claims it and that worker's scratch (a
// one-worker team runs the loop inline). That is the paper's codelet
// sized to what its local store holds (a cache-resident transform IS that
// codelet), so a single call is the B = 1 case of a batch, and a server's
// dispatch round of many groups pays one wake and one barrier. A call of
// one mixed-radix transform on a multi-worker team runs phased instead
// (digit reversal, then one phase per stage). The rule has no size
// floor: every lone mixed-radix transform on a multi-worker team takes
// it, N = 96 included, though only the large composites (N >= 10^5) gain
// from splitting one transform across workers. Both bodies compute the
// same butterflies in the same order, so a batch is bit-identical to a
// loop of single calls on any team. The paper's Alg. 2
// (dependency-counted radix-64 codelets) runs only in the fft_host
// harness and the simulator.
//
// One tile pipeline (run_tile_pipeline) runs every transform that is
// swept as a matrix: two flat team phases over tile blocks of an h x w
// view — first each block of rows ([gathered and] swept in place), then
// each block of columns, gathered into a per-worker panel, swept there
// and scattered out. Every column needs every row, so the one barrier
// between the phases is the pipeline's only sync point. It has two
// clients. Large pow2 transforms route through the hierarchical path
// (PlanKind::kHierarchical): Bailey's four-step algebra over the balanced
// split N = n1*n2, whose n1- and n2-point sub-FFTs are classic
// cache-resident sweeps, with the inter-step twiddles applied on the fly
// by phase B's gather, so no O(N) table is ever built for the large size.
// It has no serial body: the two phases run once per transform on every
// team, after the call's serial phase. And transform_2d (fft2d.hpp) runs
// the pipeline over the matrix itself: each dimension's classic sweep,
// no transpose pass and no scratch of the matrix's size. Routing is a
// function of N alone (routed_plan_kind, fft/plan.hpp): no option, env
// var or setter moves a size between plans. See DESIGN.md "Hierarchical
// large-N path".
//
// Precision: every entry point exists for cplx (f64) and cplx32 (f32).
// The two precisions dispatch through one shared member-template body
// (acquire_t<T> and friends, defined in executor.cpp), share the ONE
// persistent worker team and the plan cache (entries keyed by Precision),
// and keep separate per-worker numeric scratch (NumericState<T>) so a
// precision switch never respawns the team or clobbers the other width's
// buffers. See DESIGN.md "Precision-generic core".
//
// Concurrency: any number of caller threads may use one executor; a mutex
// serializes the phases (Team::parallel_for is single-caller by
// contract), while the PlanCache has its own finer lock and stats()
// takes neither across a phase. See DESIGN.md "Executor & plan cache".

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <span>
#include <type_traits>
#include <vector>

#include "codelet/team.hpp"
#include "fft/plan_cache.hpp"
#include "util/aligned_buffer.hpp"

namespace c64fft::fft {

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

/// Tile-block grain of the tile pipeline (FftExecutor's
/// run_tile_pipeline) over an n2 x n1 view, n2 rows of n1 points: phase
/// A sweeps the view's n2 rows in `blocks1` blocks of `block_rows1` rows
/// (the last block may be short), and phase B its n1 columns in
/// `blocks2` blocks of `block_rows2` columns. The hierarchical route
/// passes its split (n1, n2), the 2-D transform (cols, rows). Phase B's
/// block sizes are multiples of the transpose tile edge (or the whole
/// view) so no tile ever straddles two blocks: the twiddled gather seeds
/// its factors per tile, and that alignment is what makes the pipelined
/// per-block tile sweeps bit-identical to the full-matrix barrier passes.
/// Phase A's gather is a pure move, so its blocks need no alignment.
struct HierarchicalGrain {
  std::uint64_t block_rows1 = 0;
  std::uint64_t blocks1 = 0;
  std::uint64_t block_rows2 = 0;
  std::uint64_t blocks2 = 0;
};

/// The grain policy, exported so the static pipeline models
/// (analysis::build_hierarchical_pipeline, build_fft2d_pipeline)
/// enumerate exactly the blocks the executor runs: a block's panel
/// targets half of `l2_bytes` (leaving the other half for the destination
/// tiles streaming through), capped so at least workers*4 blocks exist to
/// spread over the team, rounded down to a tile-edge multiple. A view of
/// at most one tile edge of rows runs one row per phase-A block.
HierarchicalGrain hierarchical_grain(std::uint64_t n1, std::uint64_t n2,
                                     unsigned workers, unsigned element_bytes,
                                     std::uint64_t l2_bytes);

struct ExecutorOptions {
  /// Team size of every call that names none (HostFftOptions::workers ==
  /// 0, the default). In [1, codelet::Team::kMaxWorkers]; fixed for the
  /// executor's lifetime.
  unsigned workers = 4;
  /// Plan-cache capacity in entries (>= 1).
  std::size_t capacity = 16;
};

struct ExecutorStats {
  PlanCacheStats cache;
  /// Transforms dispatched one at a time / via batch submissions (both
  /// precisions; the plan cache distinguishes them by key). A 2-D call
  /// counts its rows + cols sweeps as batched.
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

/// One group of a run_groups call: transforms of one length, one precision
/// (the element type of its spans) and one direction. The spans and the
/// buffers they view must stay valid for the call.
class BatchGroup {
 public:
  BatchGroup(std::span<const std::span<cplx>> batch,
             TwiddleDirection dir) noexcept
      : precision_(Precision::kF64), f64_(batch), dir_(dir) {}
  BatchGroup(std::span<const std::span<cplx32>> batch,
             TwiddleDirection dir) noexcept
      : precision_(Precision::kF32), f32_(batch), dir_(dir) {}

  /// Transforms in the group.
  std::size_t size() const noexcept { return f64_.size() + f32_.size(); }
  /// Output of run_groups: null when the group ran, else why it did not
  /// (its lengths differ, no route runs its length, or its plan build
  /// threw). The call's other groups run either way.
  const std::exception_ptr& error() const noexcept { return error_; }

 private:
  friend class FftExecutor;
  friend struct FftExecutorTestPeer;

  template <typename T>
  std::span<const std::span<cplx_t<T>>> spans() const noexcept {
    if constexpr (std::is_same_v<T, float>)
      return f32_;
    else
      return f64_;
  }

  Precision precision_;
  std::span<const std::span<cplx>> f64_;
  std::span<const std::span<cplx32>> f32_;
  TwiddleDirection dir_;
  std::exception_ptr error_;
  /// The group's plan entry, held from its acquire to the end of the call.
  std::shared_ptr<const PlanEntry> entry_;
};

/// Test-only peer (tests/executor_test_peer.hpp): runs plan entries of a
/// forced kind (a classic plan above the threshold, a hierarchical one
/// below it, a Bluestein entry it builds outside the cache over a
/// convolution of either kind) through the executor's own locked
/// dispatch. No public knob moves a size between routes.
struct FftExecutorTestPeer;

class FftExecutor {
 public:
  /// Throws std::invalid_argument unless opts.workers is in
  /// [1, codelet::Team::kMaxWorkers]. The executor reads no environment
  /// variable. The process-wide kernel ISA is not touched: C64FFT_ISA
  /// resolves it lazily on first use, and kernels::set_kernel_isa()
  /// forces it.
  explicit FftExecutor(const ExecutorOptions& opts = {});
  ~FftExecutor();

  FftExecutor(const FftExecutor&) = delete;
  FftExecutor& operator=(const FftExecutor&) = delete;

  /// In-place transforms of any N validate_fft_shape accepts (N >= 2
  /// within its route's limit; any other N throws std::invalid_argument).
  /// opts.workers == 0 (the default) runs the executor's own team of
  /// ExecutorOptions::workers; a nonzero size runs a team of that size,
  /// respawning the team when it has another. A size above
  /// codelet::Team::kMaxWorkers throws std::invalid_argument and leaves
  /// the executor usable. The cplx32 overloads are the f32 path — same
  /// plan algebra, f32 twiddles/kernels, separate plan-cache entries.
  void forward(std::span<cplx> data, const HostFftOptions& opts = {});
  void forward(std::span<cplx32> data, const HostFftOptions& opts = {});
  void inverse(std::span<cplx> data, const HostFftOptions& opts = {});
  void inverse(std::span<cplx32> data, const HostFftOptions& opts = {});

  /// Batched transforms: every span is one independent transform; all must
  /// share one length >= 2 (throws std::invalid_argument otherwise). The
  /// one-group case of run_groups. Bit-identical per transform to a loop
  /// of single calls.
  void forward_batch(std::span<const std::span<cplx>> batch,
                     const HostFftOptions& opts = {});
  void forward_batch(std::span<const std::span<cplx32>> batch,
                     const HostFftOptions& opts = {});
  void inverse_batch(std::span<const std::span<cplx>> batch,
                     const HostFftOptions& opts = {});
  void inverse_batch(std::span<const std::span<cplx32>> batch,
                     const HostFftOptions& opts = {});

  /// Runs every group of `groups` in one call: each group's plan entry is
  /// acquired before the executor lock, then ONE phase runs every
  /// transform of every group that has a serial body, one index per
  /// transform, and the pipelined groups (hierarchical, and Bluestein over
  /// a hierarchical convolution) run after it one transform at a time.
  /// Inverse groups are scaled by 1/N. A group that cannot run is
  /// reported in its error() and the others still run; an error of the
  /// call itself (a team size outside [1, codelet::Team::kMaxWorkers], or
  /// a body that throws) is thrown. Transforms of different groups run at
  /// the same time, so every transform of the call needs its own buffer.
  /// Each transform's bytes equal those of the same transform in its own
  /// forward/inverse call.
  void run_groups(std::span<BatchGroup> groups,
                  const HostFftOptions& opts = {});

  /// In-place 2-D transform of the row-major rows x cols matrix `data`
  /// (fft2d.hpp's forward_2d/inverse_2d), scaled by 1/(rows*cols) if
  /// inverse: the tile pipeline over the matrix itself, each dimension's
  /// classic sweep in its own phase — the rows in place, then the columns
  /// in per-worker panels. Two team phases per call (`fft2d.A`,
  /// `fft2d.B`), no transpose pass and no call-sized scratch. Throws
  /// std::invalid_argument on a shape fft2d_shape rejects. Output does
  /// not depend on the team size or the kernel ISA tier.
  void transform_2d(std::span<cplx> data, std::uint64_t rows,
                    std::uint64_t cols, TwiddleDirection dir,
                    const HostFftOptions& opts = {});
  void transform_2d(std::span<cplx32> data, std::uint64_t rows,
                    std::uint64_t cols, TwiddleDirection dir,
                    const HostFftOptions& opts = {});

  /// Join and destroy the worker team and drop the per-worker buffers
  /// (the plan cache survives). The next transform lazily spawns a fresh
  /// team — for tests, and for an owner quiescing before destruction.
  void shutdown();

  /// Install a phase completion hook (codelet::PhaseHook) on the
  /// persistent team — re-installed automatically when the team is
  /// respawned. The serving layer's metrics use this to count scheduler
  /// phases and codelets without polling. Pass an empty function to
  /// clear.
  void set_phase_hook(codelet::PhaseHook hook);

  void clear_cache();
  /// Waits for no phase: the counters are relaxed atomics, read without
  /// the lock a call holds across its phases.
  ExecutorStats stats() const;

 private:
  friend struct FftExecutorTestPeer;

  /// One group's share of a call's serial phase: its transforms, and every
  /// table they read, hoisted out of its plan entry once per call.
  template <typename T>
  struct SerialGroup {
    std::span<const std::span<cplx_t<T>>> batch;
    /// One past the group's last index among the phase's indices of
    /// precision T.
    std::uint64_t end = 0;
    PlanKind kind = PlanKind::kClassic;
    TwiddleDirection dir = TwiddleDirection::kForward;
    /// Classic: the sweep's planes in `dir`. Bluestein: its classic
    /// convolution's forward (tw) and inverse (tw_inv) planes, and brev
    /// is the convolution's, so its size is M.
    LevelTwiddles<T> tw;
    LevelTwiddles<T> tw_inv;
    std::span<const std::uint32_t> brev;
    /// Bluestein: the chirp and the chirp filter's FFT in `dir`.
    std::span<const cplx_t<T>> chirp;
    std::span<const cplx_t<T>> bfft;
    /// Mixed-radix: the plan and its stage twiddles in `dir`.
    const MixedRadixPlan* mixed = nullptr;
    std::span<const cplx_t<T>> mixed_tw;
  };

  /// Per-precision mutable working set: the per-worker split scratch of
  /// the whole-transform sweep, the hierarchical buffers, the per-worker
  /// `work` buffers and the serial groups below. One instance per element
  /// width so alternating precisions never thrash each other's
  /// allocations; the worker team stays shared (it is
  /// precision-independent). Every table lives in the plan entries.
  template <typename T>
  struct NumericState {
    /// Per-worker split scratch of run_transform_split: the re/im planes,
    /// 2n scalars for the largest transform length n the worker has swept
    /// (the twiddles are read in place from the plan entry). Serves the
    /// serial pow2 body, Bluestein's serial convolutions and the
    /// hierarchical column and row FFTs. Cache-line aligned, so the
    /// sweep's SIMD loads of the planes never straddle two lines.
    std::vector<util::AlignedBuffer<T>> split;
    /// Hierarchical-path gather matrix (the n2 x n1 `s`), the view of its
    /// tile pipeline. There is no second (n1 x n2) matrix: phase B never
    /// materializes the twiddled transpose, it gathers each block of it
    /// into a per-worker panel (below). The buffer is madvise'd toward
    /// huge pages: the strided side of every gather/scatter tile walks `s`
    /// in 16-element chunks one row apart, and 2 MiB pages cut those
    /// walks' TLB misses by the page-size ratio.
    std::vector<cplx_t<T>> hier_scratch;
    /// Per-worker panel of the tile pipeline's phase B (both clients):
    /// one block's contiguous h-point rows (block_rows2, plus up to a
    /// cache line's worth of columns on a plain gather), gathered from the
    /// view's columns, swept in place, then scattered out to the
    /// destination's columns. Sized for the largest block seen;
    /// L2-resident by the grain policy's construction.
    std::vector<util::AlignedBuffer<cplx_t<T>>> panel;
    /// Per-worker route buffer: the mixed-radix digit-reversal target
    /// (stage 0 reads it back into `data`) or the Bluestein convolution
    /// buffer of length M = next_pow2(2n-1). The phased mixed-radix and
    /// hierarchical-convolution Bluestein bodies use index 0's; the
    /// serial body gives every worker its own, because whole transforms
    /// run concurrently.
    std::vector<std::vector<cplx_t<T>>> work;
    /// The current call's serial groups of precision T, in call order.
    /// Cleared per call and never shrunk, so a warm call allocates
    /// nothing.
    std::vector<SerialGroup<T>> groups;
  };

  template <typename T>
  NumericState<T>& num() {
    if constexpr (std::is_same_v<T, float>)
      return f32_;
    else
      return f64_;
  }

  /// The team of `workers` threads (mutex_ held), respawned when the
  /// current one has another size.
  codelet::Team& team(unsigned workers);
  /// run_groups of a single group, rethrowing the group's error.
  void run_group(BatchGroup group, const HostFftOptions& opts);
  /// Validates one group's batch (one length, a size some route runs) and
  /// acquires its route's plan entry: ONE cache acquire.
  template <typename T>
  std::shared_ptr<const PlanEntry> acquire_t(
      std::span<const std::span<cplx_t<T>>> batch);
  /// The locked half of run_groups, over the groups whose entry_ is set
  /// (the test peer sets forced entries and calls this directly): takes
  /// mutex_, runs the serial phase and then the pipelined groups on a
  /// `workers` team, counts them into the stats, and drops every entry_.
  void run_resolved(std::span<BatchGroup> groups, unsigned workers);
  /// Appends a group to num<T>().groups (mutex_ held), hoisting its tables
  /// and sizing every worker's scratch for it.
  template <typename T>
  void add_serial_group(const BatchGroup& group, unsigned workers);
  /// Index i of precision T's share of the serial phase (mutex_ held): one
  /// whole transform on worker w's scratch, scaled by 1/N if inverse.
  template <typename T>
  void run_serial_transform(std::uint64_t i, unsigned w);
  /// A group with no serial body in this call (mutex_ held): one
  /// transform at a time, each on the phases of its own body below,
  /// scaled by 1/N if inverse (the hierarchical body folds it into its
  /// last sweep, the others scale at the end).
  template <typename T>
  void run_pipelined(const BatchGroup& group, codelet::Team& team);
  /// One run of the tile pipeline over the row-major h x w `view`
  /// (run_tile_pipeline): phase A sweeps the view's rows (length w), phase
  /// B its columns (length h) in per-worker panels.
  template <typename T>
  struct TilePipeline {
    cplx_t<T>* view = nullptr;
    std::uint64_t h = 0;
    std::uint64_t w = 0;
    /// When set, phase A first gathers the view as the transpose of this
    /// row-major w x h matrix.
    const cplx_t<T>* src = nullptr;
    /// The row-major h x w matrix phase B scatters each swept panel row
    /// into, as the column it was gathered from (the view itself for 2-D).
    cplx_t<T>* dst = nullptr;
    /// Classic entries of the length-w and length-h sweeps.
    const PlanEntry* w_sweep = nullptr;
    const PlanEntry* h_sweep = nullptr;
    TwiddleDirection dir = TwiddleDirection::kForward;
    /// Phase B multiplies view element (r, c) by the inter-step twiddle
    /// W_{h*w}^(r*c) as it gathers it (transpose_twiddle_tile_panel).
    bool twiddle = false;
    /// Phase B multiplies each swept panel row by this; 1 skips the pass.
    double scale = 1.0;
    const char* label_a = "";
    const char* label_b = "";
  };
  /// The tile pipeline (mutex_ held): two flat team phases of tile-block
  /// tasks, blocked by hierarchical_grain(w, h, ...) — each phase-A block
  /// [gathers and] sweeps its view rows, each phase-B block gathers its
  /// view columns into the worker's panel, sweeps and scales them there
  /// and scatters them into dst. Allocation-free once the per-worker
  /// scratch has grown to the shape. Output is bit-identical across team
  /// sizes, block grains and kernel ISA tiers.
  template <typename T>
  void run_tile_pipeline(const TilePipeline<T>& p, codelet::Team& team);
  /// One hierarchical transform (mutex_ held), scaled by `scale`: the
  /// tile pipeline over the n2 x n1 gather matrix, gathered from `data`
  /// and scattered back into it in natural output order, with the
  /// inter-step twiddles fused into phase B's gather.
  template <typename T>
  void run_hierarchical_locked(const PlanEntry& entry, std::span<cplx_t<T>> data,
                               codelet::Team& team, TwiddleDirection dir,
                               double scale);
  /// transform_2d at precision T.
  template <typename T>
  void transform_2d_t(std::span<cplx_t<T>> data, std::uint64_t rows,
                      std::uint64_t cols, TwiddleDirection dir,
                      const HostFftOptions& opts);
  /// One phased mixed-radix transform (mutex_ held), unscaled:
  /// digit-reversal permutation into the ping buffer as a chunked phase,
  /// then one data-parallel phase per stage over its butterfly groups
  /// (butterflies of one stage touch disjoint indices, so any schedule is
  /// race-free and bit-identical).
  template <typename T>
  void run_mixed_radix_locked(const PlanEntry& entry, std::span<cplx_t<T>> data,
                              codelet::Team& team, TwiddleDirection dir);
  /// One Bluestein chirp-z transform over a hierarchical convolution
  /// (mutex_ held), unscaled: the chirp chain around two inner M-point
  /// pipelines on the entry's convolution. A classic convolution runs the
  /// serial body instead.
  template <typename T>
  void run_bluestein_locked(const PlanEntry& entry, std::span<cplx_t<T>> data,
                            codelet::Team& team, TwiddleDirection dir);
  /// Immutable after construction, so calls read it without the lock.
  const ExecutorOptions opts_;
  PlanCache cache_;

  /// Guards the team, the per-worker buffers, and phase execution.
  std::mutex mutex_;
  std::unique_ptr<codelet::Team> team_;
  NumericState<double> f64_;
  NumericState<float> f32_;
  codelet::PhaseHook phase_hook_;
  /// ExecutorStats' counters, bumped under mutex_ and read by stats()
  /// without it.
  std::atomic<std::uint64_t> transforms_{0};
  std::atomic<std::uint64_t> batched_{0};
  std::atomic<std::uint64_t> hierarchical_{0};
  std::atomic<std::uint64_t> mixed_radix_{0};
  std::atomic<std::uint64_t> bluestein_{0};
  std::atomic<std::uint64_t> teams_created_{0};
};

/// The process-wide executor the api.cpp wrappers dispatch through.
FftExecutor& default_executor();

}  // namespace c64fft::fft
