#include "fft/executor.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "fft/fft2d.hpp"
#include "fft/kernel.hpp"
#include "fft/kernels/dispatch.hpp"
#include "fft/mixed_radix.hpp"
#include "fft/transpose.hpp"
#include "util/bit_ops.hpp"
#include "util/cpu_features.hpp"

#if defined(__linux__)
#include <sys/mman.h>
#include <unistd.h>
#endif

namespace c64fft::fft {

namespace {

/// Scale pass of the inverse transform (the only O(N) epilogue left: the
/// input-conjugation pass is gone — the conjugated twiddle table computes
/// conj(FFT(conj(x))) directly — and the output conjugation fused into the
/// table as well, leaving just the 1/N normalization), run by the body
/// that ran the transform. The factor is computed in double and narrowed
/// once, so the f32 pass multiplies by the correctly rounded 1/N.
template <typename T>
void scale_by(std::span<cplx_t<T>> data, double factor) {
  const T f = static_cast<T>(factor);
  for (cplx_t<T>& v : data) v *= f;
}

/// Ask the kernel for transparent huge pages over `bytes` at `p` (no-op
/// off Linux or when THP is disabled system-wide). The hierarchical
/// gather matrix is walked on its strided side in 16-element chunks one
/// 32 KiB+ row apart — with 4 KiB pages every chunk is a fresh dTLB
/// entry, with 2 MiB pages 64 consecutive rows share one. Purely an
/// allocation attribute: the values computed are untouched.
void advise_huge_pages(void* p, std::size_t bytes) {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  const std::uintptr_t page = 4096;
  const std::uintptr_t lo = (reinterpret_cast<std::uintptr_t>(p) + page - 1) &
                            ~(page - 1);
  const std::uintptr_t hi =
      (reinterpret_cast<std::uintptr_t>(p) + bytes) & ~(page - 1);
  if (hi > lo) ::madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_HUGEPAGE);
#else
  (void)p;
  (void)bytes;
#endif
}

}  // namespace

SweepGrain bitrev_sweep_grain(std::uint64_t n, unsigned workers) {
  const std::uint64_t chunks = std::uint64_t{workers} * 4;
  return {chunks, util::ceil_div(n, chunks)};
}

namespace {

/// Rows per pipelined block of a tile-pipeline sweep over a matrix of
/// `rows` rows of `row_bytes` each (see hierarchical_grain's contract in
/// the header).
std::uint64_t block_rows_for(std::uint64_t rows, std::uint64_t row_bytes,
                             unsigned workers, std::uint64_t l2_bytes) {
  if (rows <= kTransposeTile) return rows;
  std::uint64_t br = row_bytes != 0 ? l2_bytes / (2 * row_bytes) : rows;
  // Keep at least workers*4 blocks per phase so the team stays balanced
  // even when L2 would hold a bigger panel.
  br = std::min(br, std::max<std::uint64_t>(
                        kTransposeTile, rows / (std::uint64_t{workers} * 4)));
  br = std::max<std::uint64_t>(br / kTransposeTile, 1) * kTransposeTile;
  return std::min(br, rows);
}

}  // namespace

HierarchicalGrain hierarchical_grain(std::uint64_t n1, std::uint64_t n2,
                                     unsigned workers, unsigned element_bytes,
                                     std::uint64_t l2_bytes) {
  HierarchicalGrain g;
  // Phase A sweeps the n2 rows of the n2 x n1 view (n1 points each),
  // phase B its n1 columns (n2 points each).
  g.block_rows1 = block_rows_for(n2, n1 * element_bytes, workers, l2_bytes);
  g.blocks1 = g.block_rows1 != 0 ? util::ceil_div(n2, g.block_rows1) : 0;
  g.block_rows2 = block_rows_for(n1, n2 * element_bytes, workers, l2_bytes);
  g.blocks2 = g.block_rows2 != 0 ? util::ceil_div(n1, g.block_rows2) : 0;
  return g;
}

namespace {

void check_team_size(unsigned workers) {
  if (workers < 1 || workers > codelet::Team::kMaxWorkers)
    throw std::invalid_argument("FftExecutor: workers must be in [1, " +
                                std::to_string(codelet::Team::kMaxWorkers) +
                                "]");
}

}  // namespace

FftExecutor::FftExecutor(const ExecutorOptions& opts)
    : opts_(opts), cache_(opts.capacity) {
  check_team_size(opts.workers);
}

FftExecutor::~FftExecutor() = default;

codelet::Team& FftExecutor::team(unsigned workers) {
  check_team_size(workers);
  if (!team_ || team_->workers() != workers) {
    team_.reset();  // join the old team before spawning its replacement
    team_ = std::make_unique<codelet::Team>(workers);
    team_->set_phase_hook(phase_hook_);
    ++teams_created_;
  }
  return *team_;
}

namespace {

/// Grows `bufs` to at least `workers` per-worker buffers of at least `len`
/// elements each. Never shrinks: traffic alternating sizes must not
/// reallocate on every switch. A grown buffer starts afresh: callers use
/// these as scratch and never read back what an earlier call left.
template <typename V>
void size_per_worker(std::vector<V>& bufs, unsigned workers, std::size_t len) {
  if (bufs.size() < workers) bufs.resize(workers);
  for (unsigned w = 0; w < workers; ++w)
    if (bufs[w].size() < len) bufs[w] = V(len);
}

/// Bluestein's chirp-z chain for one transform: X[k] = c[k] * (1/M) *
/// IFFT_M( FFT_M(x .* c) .* B )[k], with c the length-n chirp and B the
/// precomputed FFT of the chirp filter (both direction-resolved tables of
/// the plan entry). `inner(dir)` runs one in-place M-point pow2 FFT over
/// `buf`: always one forward plus one inverse, whatever the outer
/// direction, which lives entirely in the chirp tables. The O(M)
/// modulate/pointwise/demodulate passes run on the calling thread.
template <typename T, typename InnerFft>
void bluestein_chain(std::span<cplx_t<T>> data,
                     std::span<const cplx_t<T>> chirp,
                     std::span<const cplx_t<T>> bfft, std::span<cplx_t<T>> buf,
                     const InnerFft& inner) {
  const std::uint64_t n = data.size();
  const std::uint64_t m = buf.size();
  for (std::uint64_t j = 0; j < n; ++j) buf[j] = data[j] * chirp[j];
  std::fill(buf.begin() + static_cast<std::ptrdiff_t>(n), buf.end(),
            cplx_t<T>{});
  inner(TwiddleDirection::kForward);
  for (std::uint64_t j = 0; j < m; ++j) buf[j] *= bfft[j];
  inner(TwiddleDirection::kInverse);
  // Demodulate, folding in the inner inverse's 1/M (an inverse's outer
  // 1/n is a separate pass on top, run by the caller's body).
  const T inv_m = static_cast<T>(1.0 / static_cast<double>(m));
  for (std::uint64_t j = 0; j < n; ++j) data[j] = buf[j] * chirp[j] * inv_m;
}

}  // namespace

template <typename T>
std::shared_ptr<const PlanEntry> FftExecutor::acquire_t(
    std::span<const std::span<cplx_t<T>>> batch) {
  const std::uint64_t n = batch.front().size();
  for (const std::span<cplx_t<T>>& t : batch)
    if (t.size() != n)
      throw std::invalid_argument(
          "FftExecutor: batch transforms must share one length");
  // Shape errors surface before any cache/team work.
  validate_fft_shape(n);
  // One acquire of a key that is a function of (n, precision), whose
  // entry pins everything the route runs.
  return cache_.acquire(PlanKey{n, routed_plan_kind(n), precision_of<T>});
}

void FftExecutor::run_groups(std::span<BatchGroup> groups,
                             const HostFftOptions& opts) {
  // Resolve every entry before taking the lock (the cache has its own
  // finer lock, and a cold build must not stall other callers' phases).
  for (BatchGroup& g : groups) {
    g.error_ = nullptr;
    if (g.size() == 0) continue;
    try {
      g.entry_ = g.precision_ == Precision::kF32 ? acquire_t<float>(g.f32_)
                                                 : acquire_t<double>(g.f64_);
    } catch (...) {
      g.error_ = std::current_exception();
    }
  }
  run_resolved(groups, opts.workers != 0 ? opts.workers : opts_.workers);
}

void FftExecutor::run_resolved(std::span<BatchGroup> groups,
                               unsigned workers) {
  // The entries are this call's references: drop them on every exit, so
  // no descriptor carries one into a later call.
  struct Release {
    std::span<BatchGroup> groups;
    ~Release() {
      for (BatchGroup& g : groups) g.entry_.reset();
    }
  } release{groups};
  std::uint64_t total = 0;
  for (const BatchGroup& g : groups)
    if (g.entry_) total += g.size();
  if (total == 0) return;

  std::lock_guard lock(mutex_);
  codelet::Team& tm = team(workers);
  // A tile-pipelined plan (hierarchical, or Bluestein over it) runs its
  // own two phases, which cannot nest inside a phase, so it runs after
  // the serial phase, one transform at a time. So does the call's one
  // transform when it is mixed-radix on a multi-worker team: its
  // per-stage phases split it across the workers.
  const auto pipelined = [&](const PlanEntry& e) {
    const PlanKind kind = e.kind();
    return tile_pipelined(kind, kind == PlanKind::kBluestein
                                    ? e.conv_entry()->kind()
                                    : kind) ||
           (kind == PlanKind::kMixedRadix && total == 1 && tm.workers() > 1);
  };
  f64_.groups.clear();
  f32_.groups.clear();
  for (const BatchGroup& g : groups) {
    if (!g.entry_ || pipelined(*g.entry_)) continue;
    if (g.precision_ == Precision::kF32)
      add_serial_group<float>(g, tm.workers());
    else
      add_serial_group<double>(g, tm.workers());
  }
  const std::uint64_t n64 = f64_.groups.empty() ? 0 : f64_.groups.back().end;
  const std::uint64_t n32 = f32_.groups.empty() ? 0 : f32_.groups.back().end;
  if (n64 + n32 != 0)
    tm.parallel_for("serial", n64 + n32, [&](std::uint64_t i, unsigned w) {
      if (i < n64)
        run_serial_transform<double>(i, w);
      else
        run_serial_transform<float>(i - n64, w);
    });
  for (const BatchGroup& g : groups) {
    if (!g.entry_ || !pipelined(*g.entry_)) continue;
    if (g.precision_ == Precision::kF32)
      run_pipelined<float>(g, tm);
    else
      run_pipelined<double>(g, tm);
  }

  for (const BatchGroup& g : groups) {
    if (!g.entry_) continue;
    const std::uint64_t count = g.size();
    (count == 1 ? transforms_ : batched_) += count;
    const PlanKind kind = g.entry_->kind();
    if (kind == PlanKind::kHierarchical) hierarchical_ += count;
    if (kind == PlanKind::kMixedRadix) mixed_radix_ += count;
    if (kind == PlanKind::kBluestein) bluestein_ += count;
  }
}

template <typename T>
void FftExecutor::add_serial_group(const BatchGroup& group, unsigned workers) {
  NumericState<T>& st = num<T>();
  const PlanEntry& entry = *group.entry_;
  SerialGroup<T> g;
  g.batch = group.spans<T>();
  g.end = (st.groups.empty() ? 0 : st.groups.back().end) + g.batch.size();
  g.kind = entry.kind();
  g.dir = group.dir_;
  if (g.kind == PlanKind::kMixedRadix) {
    g.mixed = &entry.mixed_plan();
    g.mixed_tw = entry.mixed_twiddles<T>(g.dir);
    size_per_worker(st.work, workers, g.mixed->size());
  } else if (g.kind == PlanKind::kClassic) {
    g.tw = entry.level_twiddles<T>(g.dir);
    g.brev = entry.bitrev();
    size_per_worker(st.split, workers, 2 * g.brev.size());
  } else {
    // Bluestein: both inner FFTs sweep the classic convolution entry.
    const PlanEntry& conv = *entry.conv_entry();
    g.tw = conv.level_twiddles<T>(TwiddleDirection::kForward);
    g.tw_inv = conv.level_twiddles<T>(TwiddleDirection::kInverse);
    g.brev = conv.bitrev();
    g.chirp = entry.chirp<T>(g.dir);
    g.bfft = entry.chirp_fft<T>(g.dir);
    size_per_worker(st.split, workers, 2 * g.brev.size());
    size_per_worker(st.work, workers, g.brev.size());
  }
  st.groups.push_back(g);
}

template <typename T>
void FftExecutor::run_serial_transform(std::uint64_t i, unsigned w) {
  NumericState<T>& st = num<T>();
  const SerialGroup<T>& g = *std::upper_bound(
      st.groups.begin(), st.groups.end(), i,
      [](std::uint64_t idx, const SerialGroup<T>& s) { return idx < s.end; });
  const std::span<cplx_t<T>> data = g.batch[i - (g.end - g.batch.size())];
  if (g.kind == PlanKind::kMixedRadix) {
    mixed_radix_serial<T>(*g.mixed, g.mixed_tw, data, st.work[w], g.dir);
  } else if (g.kind == PlanKind::kClassic) {
    run_transform_split(data, g.tw, g.brev, st.split[w].data());
  } else {
    const std::span<cplx_t<T>> buf(st.work[w].data(), g.brev.size());
    bluestein_chain<T>(data, g.chirp, g.bfft, buf, [&](TwiddleDirection inner) {
      run_transform_split(buf,
                          inner == TwiddleDirection::kForward ? g.tw : g.tw_inv,
                          g.brev, st.split[w].data());
    });
  }
  if (g.dir == TwiddleDirection::kInverse)
    scale_by<T>(data, 1.0 / static_cast<double>(data.size()));
}

template <typename T>
void FftExecutor::run_pipelined(const BatchGroup& group, codelet::Team& tm) {
  const PlanEntry& entry = *group.entry_;
  for (const std::span<cplx_t<T>>& data : group.spans<T>()) {
    const double scale = group.dir_ == TwiddleDirection::kInverse
                             ? 1.0 / static_cast<double>(data.size())
                             : 1.0;
    if (entry.kind() == PlanKind::kHierarchical) {
      // The pipeline folds the 1/N into its last sweep.
      run_hierarchical_locked<T>(entry, data, tm, group.dir_, scale);
      continue;
    }
    if (entry.kind() == PlanKind::kMixedRadix)
      run_mixed_radix_locked<T>(entry, data, tm, group.dir_);
    else
      run_bluestein_locked<T>(entry, data, tm, group.dir_);
    if (scale != 1.0) scale_by<T>(data, scale);
  }
}

template <typename T>
void FftExecutor::run_mixed_radix_locked(const PlanEntry& entry,
                                         std::span<cplx_t<T>> data,
                                         codelet::Team& tm,
                                         TwiddleDirection dir) {
  const MixedRadixPlan& plan = entry.mixed_plan();
  const std::uint64_t n = plan.size();
  const std::span<const cplx_t<T>> tw = entry.mixed_twiddles<T>(dir);
  NumericState<T>& st = num<T>();
  size_per_worker(st.work, 1, n);
  const std::span<cplx_t<T>> scratch(st.work[0].data(), n);
  const std::span<const cplx_t<T>> cdata(data.data(), n);
  const std::span<const cplx_t<T>> cscratch(scratch.data(), n);

  // Digit-reversal gather as one chunked phase: scratch[p] = data[perm[p]].
  const SweepGrain grain = bitrev_sweep_grain(n, tm.workers());
  tm.parallel_for("mixed.permute", grain.chunks,
                  [&](std::uint64_t c, unsigned) {
                    const std::uint64_t b = c * grain.per;
                    mixed_radix_permute<T>(plan, cdata, scratch, b,
                                           std::min(n, b + grain.per));
                  });

  // One data-parallel phase per stage over its n/r butterflies. Stage 0
  // reads the permuted scratch and writes data (fully disjoint buffers);
  // later stages run in place on data.
  const std::uint32_t stages = plan.stage_count();
  for (std::uint32_t s = 0; s < stages; ++s) {
    const MixedRadixStage& stage = plan.stages()[s];
    const std::uint64_t g_count = n / stage.radix;
    const std::uint64_t chunks =
        std::min<std::uint64_t>(g_count, std::uint64_t{tm.workers()} * 4);
    const std::uint64_t per = util::ceil_div(g_count, chunks);
    const std::span<const cplx_t<T>> src = (s == 0) ? cscratch : cdata;
    tm.parallel_for("mixed.stage", chunks, [&](std::uint64_t c, unsigned) {
      const std::uint64_t b = c * per;
      run_mixed_radix_stage<T>(plan, s, tw, src, data, b,
                               std::min(g_count, b + per), dir);
    });
  }
}

template <typename T>
void FftExecutor::run_bluestein_locked(const PlanEntry& entry,
                                       std::span<cplx_t<T>> data,
                                       codelet::Team& tm,
                                       TwiddleDirection dir) {
  // The convolution buffer is index 0's `work`: the inner pipeline uses
  // hier_scratch, never `work`, so the chirp-modulated signal survives
  // the inner transforms.
  const PlanEntry& conv = *entry.conv_entry();
  const std::uint64_t m = conv.key().n;
  NumericState<T>& st = num<T>();
  size_per_worker(st.work, 1, m);
  const std::span<cplx_t<T>> buf(st.work[0].data(), m);
  bluestein_chain<T>(data, entry.chirp<T>(dir), entry.chirp_fft<T>(dir), buf,
                     [&](TwiddleDirection inner) {
                       run_hierarchical_locked<T>(conv, buf, tm, inner, 1.0);
                     });
}

template <typename T>
void FftExecutor::run_hierarchical_locked(const PlanEntry& entry,
                                          std::span<cplx_t<T>> data,
                                          codelet::Team& tm,
                                          TwiddleDirection dir, double scale) {
  // Index algebra (forward; kInverse conjugates every W below): with
  // j = j1*n2 + j2 and k = k2*n1 + k1,
  //   X[k2*n1 + k1] = sum_j2 W_n2^{j2*k2} * ( W_N^{j2*k1}
  //                   * sum_j1 x[j1*n2 + j2] * W_n1^{j1*k1} ).
  // The tile pipeline runs it over the n2 x n1 gather matrix s: phase A
  // gathers s as the transpose of `data` (columns become rows) and runs
  // the n1-point FFTs over its rows (the inner sum); phase B twiddles each
  // column block of s by W_N^{j2*k1} on its way into the worker's panel,
  // runs the n2-point FFTs over the panel rows (the outer sum) and
  // scatters them into the columns of `data` viewed as n2 x n1: natural
  // output order. Anti-dependence safety: phase B writes `data`, which
  // phase A reads, but B starts only after every block of A has finished.
  const std::uint64_t n1 = entry.split().n1;
  const std::uint64_t n2 = entry.split().n2;
  const std::uint64_t n = n1 * n2;
  // The gather matrix s. A fresh allocation is advised toward huge pages:
  // the strided side of every tile pass walks s one 16-element chunk per
  // row.
  NumericState<T>& st = num<T>();
  if (st.hier_scratch.size() < n) {
    st.hier_scratch.resize(n);
    advise_huge_pages(st.hier_scratch.data(), n * sizeof(cplx_t<T>));
  }
  run_tile_pipeline<T>({.view = st.hier_scratch.data(),
                        .h = n2,
                        .w = n1,
                        .src = data.data(),
                        .dst = data.data(),
                        .w_sweep = entry.col_entry().get(),
                        .h_sweep = entry.row_entry().get(),
                        .dir = dir,
                        .twiddle = true,
                        .scale = scale,
                        .label_a = "hier.A",
                        .label_b = "hier.B"},
                       tm);
}

template <typename T>
void FftExecutor::run_tile_pipeline(const TilePipeline<T>& p,
                                    codelet::Team& tm) {
  // Two flat phases over tile BLOCKS instead of barrier-separated
  // full-array passes:
  //
  //   A, i < B1:  [gather rows [r0, r1) of the view from src^T]
  //               length-w FFTs over those rows, in place
  //   B, j < B2:  gather view columns [c0, c1) into the worker's panel
  //               [times the inter-step twiddles], length-h FFTs over the
  //               panel rows [times the scale], scatter the panel rows into
  //               columns [c0, c1) of dst
  //
  // A block's sweeps run right after its gather on the same worker, while
  // the rows are cache-hot. Every phase-B column needs every row of phase
  // A, so the barrier between the phases is the pipeline's one sync
  // point. The view's columns are never materialized as rows: each B
  // block gathers its own into a per-worker L2-resident panel and sweeps
  // them there, which saves a strided matrix write, read-for-ownership and
  // re-read against transpose passes.
  //
  // Bit-identity: every gather and scatter is a pure move, except that a
  // twiddled gather multiplies by factors that are a fixed per-tile chain
  // from the hoisted w1 seed (transpose_twiddle_tile_panel's header
  // contract), and its blocks stay on the kTransposeTile grid; each row
  // FFT runs whole on one worker through the bit-exact kernel tables. So
  // the output does not depend on the team size, the block grain, the
  // buffer's alignment, the schedule order or the kernel ISA tier.
  const std::uint64_t h = p.h;
  const std::uint64_t w = p.w;
  const unsigned workers = tm.workers();
  NumericState<T>& st = num<T>();
  cplx_t<T>* const view = p.view;

  // Every row and panel FFT is one run_transform_split sweep on the
  // worker's split scratch, over the classic entries' twiddle planes and
  // bit-reversal tables.
  const PlanEntry& w_sweep = *p.w_sweep;
  const PlanEntry& h_sweep = *p.h_sweep;
  const LevelTwiddles<T> w_tw = w_sweep.level_twiddles<T>(p.dir);
  const std::span<const std::uint32_t> w_brev = w_sweep.bitrev();
  const LevelTwiddles<T> h_tw = h_sweep.level_twiddles<T>(p.dir);
  const std::span<const std::uint32_t> h_brev = h_sweep.bitrev();
  size_per_worker(st.split, workers, 2 * std::max(h, w));

  const HierarchicalGrain grain = hierarchical_grain(
      w, h, workers, sizeof(cplx_t<T>), util::cache_info().l2_bytes);
  const std::uint64_t br = grain.block_rows1;
  const std::uint64_t bc = grain.block_rows2;

  // Phase B's column blocks start at multiples of bc, moved right by
  // `shift` columns onto the view's first cache-line boundary when the
  // gather is a plain move (the twiddled gather's factors are fixed by
  // the tile grid): then no block shares a cache line of a view row with
  // the next, which would fetch it again. Block 0 also takes the columns
  // before the boundary.
  constexpr std::uint64_t kLine = 64 / sizeof(cplx_t<T>);
  const std::uint64_t shift =
      p.twiddle || w % kLine != 0
          ? 0
          : (64 - reinterpret_cast<std::uintptr_t>(view) % 64) % 64 /
                sizeof(cplx_t<T>);
  const std::uint64_t panel_rows = bc + (p.twiddle ? 0 : kLine - 1);

  // Per-worker panel: up to panel_rows contiguous h-point rows. Sized to
  // the largest grain seen and huge-page advised like the gather matrix.
  if (st.panel.size() < workers) st.panel.resize(workers);
  for (unsigned k = 0; k < workers; ++k)
    if (st.panel[k].size() < panel_rows * h) {
      st.panel[k] = util::AlignedBuffer<cplx_t<T>>(panel_rows * h);
      advise_huge_pages(st.panel[k].data(), panel_rows * h * sizeof(cplx_t<T>));
    }

  const cplx_t<T> w1 =
      p.twiddle ? unit_root<T>(h * w, 1, p.dir) : cplx_t<T>{};
  const T scale = static_cast<T>(p.scale);
  const kernels::KernelDispatch<T>& K = kernels::active_kernels<T>();

  tm.parallel_for(p.label_a, grain.blocks1, [&](std::uint64_t i, unsigned k) {
    const std::uint64_t r0b = i * br;
    const std::uint64_t rend = std::min(h, r0b + br);
    // Gather-transpose the strided src columns [r0b, rend) into contiguous
    // view rows. The src side reads one 16-element chunk per src row — a
    // stride the hardware prefetcher never locks onto — so each tile
    // software-prefetches the stripe below it one tile ahead of use
    // (prefetch is a pure hint: no values change).
    if (p.src != nullptr)
      for (std::uint64_t a0 = 0; a0 < w; a0 += kTransposeTile) {
        const std::uint64_t amax = std::min(w, a0 + kTransposeTile);
        for (std::uint64_t r0 = r0b; r0 < rend; r0 += kTransposeTile) {
          for (std::uint64_t a = a0; a < amax && a + kTransposeTile < w; ++a)
            __builtin_prefetch(p.src + (a + kTransposeTile) * h + r0, 0, 2);
          K.transpose_tile(p.src + a0 * h + r0, view + r0 * w + a0, h, w,
                           amax - a0, std::min(rend, r0 + kTransposeTile) - r0);
        }
      }
    for (std::uint64_t r = r0b; r < rend; ++r)
      run_transform_split(std::span<cplx_t<T>>(view + r * w, w), w_tw, w_brev,
                          st.split[k].data());
  });

  tm.parallel_for(p.label_b, grain.blocks2, [&](std::uint64_t j, unsigned k) {
    const std::uint64_t c0b = j == 0 ? 0 : std::min(w, j * bc + shift);
    const std::uint64_t cend =
        j + 1 == grain.blocks2 ? w : std::min(w, (j + 1) * bc + shift);
    cplx_t<T>* const panel = st.panel[k].data();
    for (std::uint64_t r0 = 0; r0 < h; r0 += kTransposeTile) {
      const std::uint64_t rmax = std::min(h, r0 + kTransposeTile);
      // Same strided-chunk walk as phase A's src side: hint the stripe
      // below into cache one tile ahead of its use.
      for (std::uint64_t r = rmax; r < std::min(h, rmax + kTransposeTile); ++r)
        __builtin_prefetch(view + r * w + c0b, 0, 2);
      for (std::uint64_t c0 = c0b; c0 < cend; c0 += kTransposeTile) {
        const std::uint64_t cmax = std::min(cend, c0 + kTransposeTile);
        if (p.twiddle)
          transpose_twiddle_tile_panel<T>(view, panel, h, w, p.dir, r0, rmax,
                                          c0, cmax, w1, c0b);
        else
          K.transpose_tile(view + r0 * w + c0, panel + (c0 - c0b) * h + r0, w,
                           h, rmax - r0, cmax - c0);
      }
    }
    for (std::uint64_t c = c0b; c < cend; ++c) {
      const std::span<cplx_t<T>> row(panel + (c - c0b) * h, h);
      run_transform_split(row, h_tw, h_brev, st.split[k].data());
      if (p.scale != 1.0)
        for (cplx_t<T>& v : row) v *= scale;
    }
    for (std::uint64_t c0 = c0b; c0 < cend; c0 += kTransposeTile) {
      const std::uint64_t cmax = std::min(cend, c0 + kTransposeTile);
      for (std::uint64_t r0 = 0; r0 < h; r0 += kTransposeTile)
        K.transpose_tile(panel + (c0 - c0b) * h + r0, p.dst + r0 * w + c0, h,
                         w, cmax - c0, std::min(h, r0 + kTransposeTile) - r0);
    }
  });
}

template <typename T>
void FftExecutor::transform_2d_t(std::span<cplx_t<T>> data, std::uint64_t rows,
                                 std::uint64_t cols, TwiddleDirection dir,
                                 const HostFftOptions& opts) {
  (void)fft2d_shape(data.size(), rows, cols);
  // Each dimension runs its classic sweep, whatever its length.
  const std::shared_ptr<const PlanEntry> row_sweep =
      cache_.acquire(PlanKey{cols, PlanKind::kClassic, precision_of<T>});
  const std::shared_ptr<const PlanEntry> col_sweep =
      rows == cols
          ? row_sweep
          : cache_.acquire(PlanKey{rows, PlanKind::kClassic, precision_of<T>});
  std::lock_guard lock(mutex_);
  codelet::Team& tm = team(opts.workers != 0 ? opts.workers : opts_.workers);
  // The matrix is the view: phase A sweeps its rows in place, phase B
  // gathers, sweeps and scales its column blocks and scatters them back.
  run_tile_pipeline<T>(
      {.view = data.data(),
       .h = rows,
       .w = cols,
       .dst = data.data(),
       .w_sweep = row_sweep.get(),
       .h_sweep = col_sweep.get(),
       .dir = dir,
       .scale = dir == TwiddleDirection::kInverse
                    ? 1.0 / static_cast<double>(data.size())
                    : 1.0,
       .label_a = "fft2d.A",
       .label_b = "fft2d.B"},
      tm);
  batched_ += rows + cols;
}

void FftExecutor::transform_2d(std::span<cplx> data, std::uint64_t rows,
                               std::uint64_t cols, TwiddleDirection dir,
                               const HostFftOptions& opts) {
  transform_2d_t<double>(data, rows, cols, dir, opts);
}

void FftExecutor::transform_2d(std::span<cplx32> data, std::uint64_t rows,
                               std::uint64_t cols, TwiddleDirection dir,
                               const HostFftOptions& opts) {
  transform_2d_t<float>(data, rows, cols, dir, opts);
}

void FftExecutor::run_group(BatchGroup group, const HostFftOptions& opts) {
  run_groups(std::span<BatchGroup>(&group, 1), opts);
  if (group.error()) std::rethrow_exception(group.error());
}

void FftExecutor::forward(std::span<cplx> data, const HostFftOptions& opts) {
  const std::span<cplx> one[1] = {data};
  run_group(BatchGroup(one, TwiddleDirection::kForward), opts);
}

void FftExecutor::forward(std::span<cplx32> data, const HostFftOptions& opts) {
  const std::span<cplx32> one[1] = {data};
  run_group(BatchGroup(one, TwiddleDirection::kForward), opts);
}

void FftExecutor::inverse(std::span<cplx> data, const HostFftOptions& opts) {
  const std::span<cplx> one[1] = {data};
  run_group(BatchGroup(one, TwiddleDirection::kInverse), opts);
}

void FftExecutor::inverse(std::span<cplx32> data, const HostFftOptions& opts) {
  const std::span<cplx32> one[1] = {data};
  run_group(BatchGroup(one, TwiddleDirection::kInverse), opts);
}

void FftExecutor::forward_batch(std::span<const std::span<cplx>> batch,
                                const HostFftOptions& opts) {
  run_group(BatchGroup(batch, TwiddleDirection::kForward), opts);
}

void FftExecutor::forward_batch(std::span<const std::span<cplx32>> batch,
                                const HostFftOptions& opts) {
  run_group(BatchGroup(batch, TwiddleDirection::kForward), opts);
}

void FftExecutor::inverse_batch(std::span<const std::span<cplx>> batch,
                                const HostFftOptions& opts) {
  run_group(BatchGroup(batch, TwiddleDirection::kInverse), opts);
}

void FftExecutor::inverse_batch(std::span<const std::span<cplx32>> batch,
                                const HostFftOptions& opts) {
  run_group(BatchGroup(batch, TwiddleDirection::kInverse), opts);
}

void FftExecutor::shutdown() {
  std::lock_guard lock(mutex_);
  team_.reset();
  f64_ = {};
  f32_ = {};
}

void FftExecutor::set_phase_hook(codelet::PhaseHook hook) {
  std::lock_guard lock(mutex_);
  phase_hook_ = std::move(hook);
  if (team_) team_->set_phase_hook(phase_hook_);
}

void FftExecutor::clear_cache() { cache_.clear(); }

ExecutorStats FftExecutor::stats() const {
  ExecutorStats s;
  s.cache = cache_.stats();
  std::lock_guard lock(mutex_);
  s.transforms = transforms_;
  s.batched = batched_;
  s.hierarchical = hierarchical_;
  s.mixed_radix = mixed_radix_;
  s.bluestein = bluestein_;
  s.teams_created = teams_created_;
  return s;
}

FftExecutor& default_executor() {
  static FftExecutor executor;
  return executor;
}

}  // namespace c64fft::fft
