#include "fft/executor.hpp"

#include <algorithm>
#include <cstdlib>
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
/// table as well, leaving just the 1/N normalization). The factor is
/// computed in double and narrowed once, so the f32 pass multiplies by the
/// correctly rounded 1/N.
template <typename T>
void scale_by(std::span<cplx_t<T>> data, double factor) {
  const T f = static_cast<T>(factor);
  for (cplx_t<T>& v : data) v *= f;
}

/// Strict base-10 parse of an environment variable into an unsigned;
/// returns false (leaving `out` untouched) when unset or malformed.
bool env_unsigned(const char* name, unsigned& out) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return false;
  char* end = nullptr;
  const unsigned long v = std::strtoul(raw, &end, 10);
  if (end == raw || *end != '\0' || v > 0xFFFFFFFFul) return false;
  out = static_cast<unsigned>(v);
  return true;
}

/// True when n >= 1 has no prime factor above 7 — factorize(n).smooth
/// without building the stage vector, so routing allocates nothing.
bool seven_smooth(std::uint64_t n) {
  for (const std::uint64_t p : {2u, 3u, 5u, 7u})
    while (n % p == 0) n /= p;
  return n == 1;
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

PlanKind routed_plan_kind(std::uint64_t n) {
  // Non-pow2 routing is factorization-driven: every 7-smooth composite
  // runs the mixed-radix plan, everything else the Bluestein chirp-z path
  // (whose INTERNAL pow2 convolution FFTs re-enter here with
  // M = next_pow2(2n-1)).
  if (n >= 2 && !util::is_pow2(n))
    return seven_smooth(n) ? PlanKind::kMixedRadix : PlanKind::kBluestein;
  return n >= 4 && util::ilog2(n) >= kDefaultHierarchicalThresholdLog2
             ? PlanKind::kHierarchical
             : PlanKind::kClassic;
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

bool valid_team_size(unsigned workers) {
  return workers >= 1 && workers <= codelet::Team::kMaxWorkers;
}

void check_team_size(unsigned workers) {
  if (!valid_team_size(workers))
    throw std::invalid_argument("FftExecutor: workers must be in [1, " +
                                std::to_string(codelet::Team::kMaxWorkers) +
                                "]");
}

}  // namespace

FftExecutor::FftExecutor(const ExecutorOptions& opts)
    : opts_(opts), cache_(opts.capacity) {
  check_team_size(opts.workers);
  // The one env read, here only (see the header contract).
  unsigned workers = 0;
  if (env_unsigned("C64FFT_WORKERS", workers) && valid_team_size(workers))
    opts_.workers = workers;
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
/// modulate/pointwise/demodulate passes run on the calling thread; they
/// are noise against the inner FFTs they bracket.
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
  // Demodulate, folding in the inner inverse's 1/M (the locked bodies
  // never scale; the public inverse wrappers add the outer 1/n on top).
  const T inv_m = static_cast<T>(1.0 / static_cast<double>(m));
  for (std::uint64_t j = 0; j < n; ++j) data[j] = buf[j] * chirp[j] * inv_m;
}

}  // namespace

template <typename T>
void FftExecutor::run_t(std::span<const std::span<cplx_t<T>>> batch,
                        const HostFftOptions& opts, TwiddleDirection dir) {
  if (batch.empty()) return;
  // Unlocked fast-fail; the authoritative re-check happens under mutex_
  // in dispatch_t (close() flips the flag while holding the same mutex, so
  // a caller that passes that check runs on a team close() has not
  // joined).
  if (closed_.load(std::memory_order_acquire)) throw ExecutorClosedError();
  const std::uint64_t n = batch.front().size();
  for (const std::span<cplx_t<T>>& t : batch)
    if (t.size() != n)
      throw std::invalid_argument(
          "FftExecutor: batch transforms must share one length");

  // Shape errors surface before any cache/team work.
  validate_fft_shape(n);

  // Resolve the route and its plan entries before taking the lock (the
  // cache has its own finer lock). Every key is a function of (n, kind,
  // precision), the kind a function of n. Bluestein's M-point
  // convolution takes the key a direct M-point call builds, so the two
  // share one entry.
  const PlanKind kind = routed_plan_kind(n);
  const std::shared_ptr<const PlanEntry> entry =
      cache_.acquire(PlanKey{n, kind, precision_of<T>});
  std::shared_ptr<const PlanEntry> conv;
  if (kind == PlanKind::kBluestein) {
    const std::uint64_t m = bluestein_fft_size(n);
    conv = cache_.acquire(PlanKey{m, routed_plan_kind(m), precision_of<T>});
  }
  dispatch_t<T>(*entry, conv.get(), batch, opts.workers, dir);
}

template <typename T>
void FftExecutor::dispatch_t(const PlanEntry& entry, const PlanEntry* conv,
                             std::span<const std::span<cplx_t<T>>> batch,
                             unsigned workers, TwiddleDirection dir) {
  // A hierarchical plan (direct, or as Bluestein's convolution) runs its
  // own two phases, which cannot nest inside a phase, so it runs one
  // transform at a time on every team. A single mixed-radix transform
  // on a multi-worker team runs its per-stage phases. Everything else is
  // the serial body, a single call being a batch of one.
  const PlanKind kind = entry.kind();
  const bool pipelined =
      kind == PlanKind::kHierarchical ||
      (conv != nullptr && conv->kind() == PlanKind::kHierarchical);

  std::lock_guard lock(mutex_);
  if (closed_.load(std::memory_order_relaxed)) throw ExecutorClosedError();
  codelet::Team& tm = team(workers);
  const bool phased_mixed = kind == PlanKind::kMixedRadix &&
                            batch.size() == 1 && tm.workers() > 1;
  if (!pipelined && !phased_mixed) {
    run_serial_locked<T>(entry, conv, batch, tm, dir);
  } else {
    for (const std::span<cplx_t<T>>& data : batch) {
      if (kind == PlanKind::kHierarchical)
        run_hierarchical_locked<T>(entry, data, tm, dir);
      else if (kind == PlanKind::kMixedRadix)
        run_mixed_radix_locked<T>(entry, data, tm, dir);
      else
        run_bluestein_locked<T>(entry, *conv, data, tm, dir);
    }
  }
  const std::uint64_t count = batch.size();
  (count == 1 ? transforms_ : batched_) += count;
  if (kind == PlanKind::kHierarchical) hierarchical_ += count;
  if (kind == PlanKind::kMixedRadix) mixed_radix_ += count;
  if (kind == PlanKind::kBluestein) bluestein_ += count;
}

template <typename T>
void FftExecutor::run_serial_locked(const PlanEntry& entry,
                                    const PlanEntry* conv,
                                    std::span<const std::span<cplx_t<T>>> batch,
                                    codelet::Team& tm,
                                    TwiddleDirection dir) {
  const unsigned workers = tm.workers();
  NumericState<T>& st = num<T>();
  if (entry.kind() == PlanKind::kMixedRadix) {
    const MixedRadixPlan& plan = entry.mixed_plan();
    const std::span<const cplx_t<T>> tw = entry.mixed_twiddles_for<T>(dir);
    size_per_worker(st.work, workers, plan.size());
    tm.parallel_for(batch.size(), [&](std::uint64_t b, unsigned w) {
      mixed_radix_serial<T>(plan, tw, batch[b], st.work[w], dir);
    });
    return;
  }

  // Classic transforms and Bluestein's convolutions: one pow2 plan, each
  // transform one split-complex sweep (run_transform_split) on its
  // worker's split scratch. Every table comes from the plan entry.
  const PlanEntry& pow2 = conv != nullptr ? *conv : entry;
  const std::uint64_t len = pow2.key().n;
  size_per_worker(st.split, workers, 3 * len);
  const std::span<const std::uint32_t> brev = pow2.bitrev();
  const auto fft = [&](std::span<cplx_t<T>> data,
                       const BasicTwiddleTable<T>& tw, unsigned w) {
    run_transform_split(data, tw, brev, st.split[w].data());
  };
  if (conv == nullptr) {
    const BasicTwiddleTable<T>& tw = entry.twiddles_for<T>(dir);
    tm.parallel_for(batch.size(), [&](std::uint64_t b, unsigned w) {
      fft(batch[b], tw, w);
    });
    return;
  }
  const BasicTwiddleTable<T>& tw_fwd =
      conv->twiddles_for<T>(TwiddleDirection::kForward);
  const BasicTwiddleTable<T>& tw_inv =
      conv->twiddles_for<T>(TwiddleDirection::kInverse);
  const std::span<const cplx_t<T>> chirp = entry.chirp_for<T>(dir);
  const std::span<const cplx_t<T>> bfft = entry.chirp_fft_for<T>(dir);
  size_per_worker(st.work, workers, len);
  tm.parallel_for(batch.size(), [&](std::uint64_t b, unsigned w) {
    const std::span<cplx_t<T>> buf(st.work[w].data(), len);
    bluestein_chain<T>(batch[b], chirp, bfft, buf, [&](TwiddleDirection inner) {
      fft(buf, inner == TwiddleDirection::kForward ? tw_fwd : tw_inv, w);
    });
  });
}

template <typename T>
void FftExecutor::run_mixed_radix_locked(const PlanEntry& entry,
                                         std::span<cplx_t<T>> data,
                                         codelet::Team& tm,
                                         TwiddleDirection dir) {
  const MixedRadixPlan& plan = entry.mixed_plan();
  const std::uint64_t n = plan.size();
  const std::span<const cplx_t<T>> tw = entry.mixed_twiddles_for<T>(dir);
  NumericState<T>& st = num<T>();
  size_per_worker(st.work, 1, n);
  const std::span<cplx_t<T>> scratch(st.work[0].data(), n);
  const std::span<const cplx_t<T>> cdata(data.data(), n);
  const std::span<const cplx_t<T>> cscratch(scratch.data(), n);

  // Digit-reversal gather as one chunked phase: scratch[p] = data[perm[p]].
  const SweepGrain grain = bitrev_sweep_grain(n, tm.workers());
  tm.parallel_for(grain.chunks, [&](std::uint64_t c, unsigned) {
    const std::uint64_t b = c * grain.per;
    mixed_radix_permute<T>(plan, cdata, scratch, b, std::min(n, b + grain.per));
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
    tm.parallel_for(chunks, [&](std::uint64_t c, unsigned) {
      const std::uint64_t b = c * per;
      run_mixed_radix_stage<T>(plan, s, tw, src, data, b,
                               std::min(g_count, b + per), dir);
    });
  }
}

template <typename T>
void FftExecutor::run_bluestein_locked(const PlanEntry& entry,
                                       const PlanEntry& conv,
                                       std::span<cplx_t<T>> data,
                                       codelet::Team& tm,
                                       TwiddleDirection dir) {
  // The convolution buffer is index 0's `work`: the inner pipeline uses
  // hier_scratch, never `work`, so the chirp-modulated signal survives
  // the inner transforms.
  const std::uint64_t m = entry.conv_size();
  NumericState<T>& st = num<T>();
  size_per_worker(st.work, 1, m);
  const std::span<cplx_t<T>> buf(st.work[0].data(), m);
  bluestein_chain<T>(data, entry.chirp_for<T>(dir),
                     entry.chirp_fft_for<T>(dir), buf,
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
  // schedule order or the kernel ISA tier. No pass scales: the public
  // inverse wrappers apply the 1/N.
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
  // worker's split scratch, over the twiddle and bit-reversal tables of
  // the classic sub-entries.
  const BasicTwiddleTable<T>& row_tw = entry.row_entry()->twiddles_for<T>(dir);
  const std::span<const std::uint32_t> brev2 = entry.row_entry()->bitrev();
  const BasicTwiddleTable<T>& col_tw = entry.col_entry()->twiddles_for<T>(dir);
  const std::span<const std::uint32_t> brev1 = entry.col_entry()->bitrev();
  size_per_worker(st.split, workers, 3 * std::max(n1, n2));

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

  tm.parallel_for(B1, [&](std::uint64_t i, unsigned worker) {
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

  tm.parallel_for(B2, [&](std::uint64_t j, unsigned worker) {
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

// The test peer (FftExecutorTestPeer) drives the dispatch directly.
template void FftExecutor::dispatch_t<double>(
    const PlanEntry&, const PlanEntry*, std::span<const std::span<cplx>>,
    unsigned, TwiddleDirection);
template void FftExecutor::dispatch_t<float>(
    const PlanEntry&, const PlanEntry*, std::span<const std::span<cplx32>>,
    unsigned, TwiddleDirection);

void FftExecutor::forward(std::span<cplx> data, const HostFftOptions& opts) {
  const std::span<cplx> one[1] = {data};
  run_t<double>(one, opts, TwiddleDirection::kForward);
}

void FftExecutor::forward(std::span<cplx> data) {
  forward(data, HostFftOptions{default_workers()});
}

void FftExecutor::forward(std::span<cplx32> data, const HostFftOptions& opts) {
  const std::span<cplx32> one[1] = {data};
  run_t<float>(one, opts, TwiddleDirection::kForward);
}

void FftExecutor::forward(std::span<cplx32> data) {
  forward(data, HostFftOptions{default_workers()});
}

void FftExecutor::inverse(std::span<cplx> data, const HostFftOptions& opts) {
  const std::span<cplx> one[1] = {data};
  run_t<double>(one, opts, TwiddleDirection::kInverse);
  scale_by<double>(data, 1.0 / static_cast<double>(data.size()));
}

void FftExecutor::inverse(std::span<cplx> data) {
  inverse(data, HostFftOptions{default_workers()});
}

void FftExecutor::inverse(std::span<cplx32> data, const HostFftOptions& opts) {
  const std::span<cplx32> one[1] = {data};
  run_t<float>(one, opts, TwiddleDirection::kInverse);
  scale_by<float>(data, 1.0 / static_cast<double>(data.size()));
}

void FftExecutor::inverse(std::span<cplx32> data) {
  inverse(data, HostFftOptions{default_workers()});
}

void FftExecutor::forward_batch(std::span<const std::span<cplx>> batch,
                                const HostFftOptions& opts) {
  run_t<double>(batch, opts, TwiddleDirection::kForward);
}

void FftExecutor::forward_batch(std::span<const std::span<cplx>> batch) {
  forward_batch(batch, HostFftOptions{default_workers()});
}

void FftExecutor::forward_batch(std::span<const std::span<cplx32>> batch,
                                const HostFftOptions& opts) {
  run_t<float>(batch, opts, TwiddleDirection::kForward);
}

void FftExecutor::forward_batch(std::span<const std::span<cplx32>> batch) {
  forward_batch(batch, HostFftOptions{default_workers()});
}

void FftExecutor::inverse_batch(std::span<const std::span<cplx>> batch,
                                const HostFftOptions& opts) {
  run_t<double>(batch, opts, TwiddleDirection::kInverse);
  for (const std::span<cplx>& t : batch)
    scale_by<double>(t, 1.0 / static_cast<double>(t.size()));
}

void FftExecutor::inverse_batch(std::span<const std::span<cplx>> batch) {
  inverse_batch(batch, HostFftOptions{default_workers()});
}

void FftExecutor::inverse_batch(std::span<const std::span<cplx32>> batch,
                                const HostFftOptions& opts) {
  run_t<float>(batch, opts, TwiddleDirection::kInverse);
  for (const std::span<cplx32>& t : batch)
    scale_by<float>(t, 1.0 / static_cast<double>(t.size()));
}

void FftExecutor::inverse_batch(std::span<const std::span<cplx32>> batch) {
  inverse_batch(batch, HostFftOptions{default_workers()});
}

void FftExecutor::resize(unsigned workers) {
  check_team_size(workers);
  std::lock_guard lock(mutex_);
  opts_.workers = workers;
  if (team_ && team_->workers() != workers) team_.reset();
}

unsigned FftExecutor::default_workers() const {
  std::lock_guard lock(mutex_);
  return opts_.workers;
}

void FftExecutor::shutdown() {
  std::lock_guard lock(mutex_);
  shutdown_locked();
}

void FftExecutor::shutdown_locked() {
  team_.reset();
  f64_ = {};
  f32_ = {};
}

void FftExecutor::close() {
  std::lock_guard lock(mutex_);
  // Order matters: the flag flips while the phase mutex is held, so any
  // transform that already passed its unlocked fast-fail is either (a)
  // finished with its phase — we join a quiescent team — or (b) still
  // waiting on mutex_, in which case it re-checks the flag after we
  // release and throws instead of respawning the team we just joined.
  closed_.store(true, std::memory_order_release);
  shutdown_locked();
}

bool FftExecutor::closed() const noexcept {
  return closed_.load(std::memory_order_acquire);
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
