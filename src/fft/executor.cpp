#include "fft/executor.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

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

/// Rows per pipelined block of a hierarchical-level sweep over a matrix of
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
  // Gather/column stages sweep the n2 x n1 gather matrix (n2 rows of n1
  // points); scatter/row stages sweep its n1 x n2 mirror.
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
  // A hierarchical plan (direct, or as Bluestein's convolution) runs its
  // own two phases, which cannot nest inside a phase, so it runs after
  // the serial phase, one transform at a time. So does the call's one
  // transform when it is mixed-radix on a multi-worker team: its
  // per-stage phases split it across the workers.
  const auto pipelined = [&](const PlanEntry& e) {
    return e.kind() == PlanKind::kHierarchical ||
           (e.kind() == PlanKind::kBluestein &&
            e.conv_entry()->kind() == PlanKind::kHierarchical) ||
           (e.kind() == PlanKind::kMixedRadix && total == 1 &&
            tm.workers() > 1);
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
    if (entry.kind() == PlanKind::kHierarchical)
      run_hierarchical_locked<T>(entry, data, tm, group.dir_);
    else if (entry.kind() == PlanKind::kMixedRadix)
      run_mixed_radix_locked<T>(entry, data, tm, group.dir_);
    else
      run_bluestein_locked<T>(entry, data, tm, group.dir_);
    if (group.dir_ == TwiddleDirection::kInverse)
      scale_by<T>(data, 1.0 / static_cast<double>(data.size()));
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
                       run_hierarchical_locked<T>(conv, buf, tm, inner);
                     });
}

template <typename T>
void FftExecutor::run_hierarchical_locked(const PlanEntry& entry,
                                          std::span<cplx_t<T>> data,
                                          codelet::Team& tm,
                                          TwiddleDirection dir) {
  // Index algebra (forward; kInverse conjugates every W below): with
  // j = j1*n2 + j2 and k = k2*n1 + k1,
  //   X[k2*n1 + k1] = sum_j2 W_n2^{j2*k2} * ( W_N^{j2*k1}
  //                   * sum_j1 x[j1*n2 + j2] * W_n1^{j1*k1} ).
  // Over the n1 x n2 row-major view of `data` and its n2 x n1 mirror s:
  // transpose data into s (columns become rows), n1-point FFTs over the
  // rows of s (the inner sum), twiddle by W_N^{j2*k1} on the way back,
  // n2-point FFTs over the n1 rows (the outer sum), and a final transpose
  // into natural output order. Executed as two flat phases over tile
  // BLOCKS instead of barrier-separated full-array passes:
  //
  //   A, i < B1:  T1[i] gather-transpose of block i    data -> s
  //               T2[i] column FFTs of block i         s    -> s
  //   B, j < B2:  T4[j] twiddle-gather + row FFTs      s    -> data
  //                     + writeback
  //
  // T2[i] runs right after T1[i] on the same worker, which sweeps the
  // panel it just gathered while it is cache-hot. Every T4[j] needs all B1
  // column blocks — a T4 row is a twiddled COLUMN of s — so the barrier
  // between the phases is the pipeline's one sync point.
  //
  // T4 is the fused heart of the path: the twiddled n1 x n2 matrix is
  // never materialized. Each T4 twiddle-gathers its own block_rows2 rows
  // into a per-worker L2-resident panel (transpose_twiddle_tile_panel —
  // interleaved per-row recurrences, one strided walk of s), sweeps the
  // panel rows while they are hot, and transposes the panel out to `data`
  // in natural order. Against a barrier-phased pass sequence that saves a
  // full strided matrix write + read-for-ownership + re-read, which is
  // where the measured large-N win comes from on one core.
  // Anti-dependence safety: T4 writes `data`, which T1 reads — but phase
  // B starts only after every T1 of phase A has finished.
  //
  // Bit-identity: block boundaries are kTransposeTile-aligned and every
  // twiddle is a fixed per-tile multiplication chain from the hoisted w1
  // seed (transpose_twiddle_tile_panel's header contract), while each row
  // FFT runs whole on one worker through the bit-exact kernel tables — so
  // the output does not depend on the team size, the block grain, the
  // schedule order or the kernel ISA tier. No pass scales: an inverse's
  // 1/N runs after the pipeline (run_pipelined).
  const std::uint64_t n1 = entry.split().n1;
  const std::uint64_t n2 = entry.split().n2;
  const std::uint64_t n = n1 * n2;

  const unsigned workers = tm.workers();
  NumericState<T>& st = num<T>();

  // The gather matrix s (n2 x n1). A fresh allocation is advised toward
  // huge pages — the strided side of every tile pass walks s one
  // 16-element chunk per row.
  if (st.hier_scratch.size() < n) {
    st.hier_scratch.resize(n);
    advise_huge_pages(st.hier_scratch.data(), n * sizeof(cplx_t<T>));
  }
  const std::span<cplx_t<T>> s(st.hier_scratch.data(), n);

  // Every column and row FFT is one run_transform_split sweep on the
  // worker's split scratch, over the twiddle planes and bit-reversal
  // tables of the classic sub-entries.
  const LevelTwiddles<T> row_tw = entry.row_entry()->level_twiddles<T>(dir);
  const std::span<const std::uint32_t> brev2 = entry.row_entry()->bitrev();
  const LevelTwiddles<T> col_tw = entry.col_entry()->level_twiddles<T>(dir);
  const std::span<const std::uint32_t> brev1 = entry.col_entry()->bitrev();
  size_per_worker(st.split, workers, 2 * std::max(n1, n2));

  const HierarchicalGrain grain =
      hierarchical_grain(n1, n2, workers, sizeof(cplx_t<T>),
                         util::cache_info().l2_bytes);
  const std::uint64_t br1 = grain.block_rows1;
  const std::uint64_t B1 = grain.blocks1;
  const std::uint64_t br2 = grain.block_rows2;
  const std::uint64_t B2 = grain.blocks2;

  // Per-worker T4 panel: block_rows2 contiguous n2-point rows. Sized to
  // the largest grain seen and huge-page advised like s.
  if (st.hier_panel.size() < workers) st.hier_panel.resize(workers);
  for (unsigned w = 0; w < workers; ++w)
    if (st.hier_panel[w].size() < br2 * n2) {
      st.hier_panel[w].resize(br2 * n2);
      advise_huge_pages(st.hier_panel[w].data(),
                        br2 * n2 * sizeof(cplx_t<T>));
    }

  const cplx_t<T> w1 = unit_root<T>(n, 1, dir);
  const kernels::KernelDispatch<T>& K = kernels::active_kernels<T>();

  tm.parallel_for("hier.A", B1, [&](std::uint64_t i, unsigned worker) {
    // T1: gather-transpose the strided data columns of block i into
    // contiguous rows of s. The src side reads one 16-element chunk per
    // data row — a stride the hardware prefetcher never locks onto — so
    // each tile software-prefetches the stripe below it one tile ahead of
    // use (prefetch is a pure hint: no values change).
    const std::uint64_t c0b = i * br1;
    const std::uint64_t cend = std::min(n2, c0b + br1);
    for (std::uint64_t r0 = 0; r0 < n1; r0 += kTransposeTile) {
      const std::uint64_t rmax = std::min(n1, r0 + kTransposeTile);
      for (std::uint64_t c0 = c0b; c0 < cend; c0 += kTransposeTile) {
        const std::uint64_t cmax = std::min(cend, c0 + kTransposeTile);
        for (std::uint64_t r = r0; r < rmax && r + kTransposeTile < n1; ++r)
          __builtin_prefetch(data.data() + (r + kTransposeTile) * n2 + c0, 0,
                             2);
        K.transpose_tile(data.data() + r0 * n2 + c0, s.data() + c0 * n1 + r0,
                         n2, n1, rmax - r0, cmax - c0);
      }
    }
    // T2: column FFTs over the block's rows of s, in place.
    for (std::uint64_t r = c0b; r < cend; ++r)
      run_transform_split(s.subspan(r * n1, n1), col_tw, brev1,
                          st.split[worker].data());
  });

  tm.parallel_for("hier.B", B2, [&](std::uint64_t j, unsigned worker) {
    // T4: twiddle-gather the block's rows — twiddled columns of s — into
    // this worker's panel, sweep the panel rows while they are hot, then
    // writeback-transpose into `data` in natural output order.
    const std::uint64_t r0b = j * br2;
    const std::uint64_t rend = std::min(n1, r0b + br2);
    cplx_t<T>* const panel = st.hier_panel[worker].data();
    for (std::uint64_t r0 = 0; r0 < n2; r0 += kTransposeTile) {
      const std::uint64_t rmax = std::min(n2, r0 + kTransposeTile);
      // Same strided-chunk walk as T1's src side: hint the stripe below
      // into cache one tile ahead of its use.
      for (std::uint64_t r = rmax; r < std::min(n2, rmax + kTransposeTile);
           ++r)
        __builtin_prefetch(s.data() + r * n1 + r0b, 0, 2);
      for (std::uint64_t c0 = r0b; c0 < rend; c0 += kTransposeTile)
        transpose_twiddle_tile_panel<T>(s.data(), panel, n2, n1, dir, r0,
                                        rmax, c0,
                                        std::min(rend, c0 + kTransposeTile),
                                        w1, r0b);
    }
    for (std::uint64_t r = r0b; r < rend; ++r)
      run_transform_split(std::span<cplx_t<T>>(panel + (r - r0b) * n2, n2),
                          row_tw, brev2, st.split[worker].data());
    for (std::uint64_t r0 = r0b; r0 < rend; r0 += kTransposeTile) {
      const std::uint64_t rmax = std::min(rend, r0 + kTransposeTile);
      for (std::uint64_t c0 = 0; c0 < n2; c0 += kTransposeTile) {
        const std::uint64_t cmax = std::min(n2, c0 + kTransposeTile);
        K.transpose_tile(panel + (r0 - r0b) * n2 + c0,
                         data.data() + c0 * n1 + r0, n2, n1, rmax - r0,
                         cmax - c0);
      }
    }
  });
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
