#pragma once
// Thread-safe LRU cache of immutable FFT plan entries.
//
// The paper's codelet model assumes the plan and twiddle table exist once
// and transforms stream through them; this cache is that amortization
// layer, and the executor's only table cache. A PlanEntry bundles
// everything a transform of a given shape needs that does not depend on
// the data buffer: for a classic pow2 size the forward (and lazily the
// conjugated inverse) TwiddleTable and the bit-reversal index table, for
// the other kinds their split, stage vector or chirp tables. Entries are
// immutable and handed out as shared_ptr<const PlanEntry>, so a cache
// eviction never invalidates a transform in flight (a hierarchical
// entry pins its sub-entries, and with them their tables). See DESIGN.md
// "Executor & plan cache".

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "fft/mixed_radix.hpp"
#include "fft/plan.hpp"
#include "fft/twiddle.hpp"

namespace c64fft::fft {

/// Everything that distinguishes one cached plan from another. Twiddle
/// tables are always stored in the linear layout. `kind` is part of the
/// key — the classic and the hierarchical decomposition of one size are
/// distinct entries (a hierarchical entry's classic sub-entries are
/// ordinary residents, shared with direct calls of their size).
/// `precision` is part of the key too: an f32 and an f64
/// transform of the same shape share nothing but the index algebra, and
/// the twiddle tables they pin differ in both element width and content,
/// so they must age through the LRU as separate entries.
struct PlanKey {
  std::uint64_t n = 0;
  PlanKind kind = PlanKind::kClassic;
  Precision precision = Precision::kF64;

  bool operator==(const PlanKey&) const = default;
};

struct PlanKeyHash {
  std::size_t operator()(const PlanKey& k) const noexcept {
    std::uint64_t h = k.n * 0x9e3779b97f4a7c15ull;
    h ^= (k.kind == PlanKind::kHierarchical ? 0x2545f4914f6cdd1dull : 0) ^
         (k.kind == PlanKind::kMixedRadix ? 0x94d049bb133111ebull : 0) ^
         (k.kind == PlanKind::kBluestein ? 0xbf58476d1ce4e5b9ull : 0) ^
         (k.precision == Precision::kF32 ? 0xa0761d6478bd642full : 0);
    h ^= h >> 33;
    return static_cast<std::size_t>(h);
  }
};

class PlanEntry {
 public:
  /// Builds a classic, mixed-radix, or Bluestein entry from the key kind:
  /// classic gets the forward twiddle table and the bit-reversal index
  /// table (every classic transform is one whole-transform sweep, so no
  /// stage plan is kept); mixed-radix
  /// gets the MixedRadixPlan (stage vector + digit-reversal permutation)
  /// and its flat per-stage forward twiddles;
  /// Bluestein gets the length-n chirp and the length-M FFT of the chirp
  /// filter (M = bluestein_fft_size(n)) — the runtime convolution's pow2
  /// plans are acquired separately from the shared cache. All kinds build
  /// only the key's precision eagerly (f32 tables are narrowed images of
  /// the double-evaluated values) and the inverse-direction tables
  /// lazily. Throws std::invalid_argument for bad shapes (a classic key
  /// must be a power of two >= 2).
  explicit PlanEntry(const PlanKey& key);

  /// Builds a hierarchical entry: no twiddles of its own, just the split
  /// and pinned classic sub-entries for the column (length n1) and row
  /// (length n2) transforms — one shared sub-entry when the split is
  /// square. The inter-step twiddles are generated on the fly by
  /// transpose_twiddle_tile_panel, so the entry is O(n1 + n2) where a
  /// classic entry would be O(N).
  PlanEntry(const PlanKey& key, HierarchicalSplit split,
            std::shared_ptr<const PlanEntry> col_entry,
            std::shared_ptr<const PlanEntry> row_entry);

  PlanEntry(const PlanEntry&) = delete;
  PlanEntry& operator=(const PlanEntry&) = delete;

  const PlanKey& key() const noexcept { return key_; }
  PlanKind kind() const noexcept { return key_.kind; }
  Precision precision() const noexcept { return key_.precision; }

  /// Forward table always exists; the conjugated inverse table is built on
  /// first request and cached for the entry's lifetime. Classic only.
  /// Only the key's precision is materialized: `twiddles` serves kF64
  /// entries, `twiddles_f32` serves kF32 ones, and asking an entry for the
  /// other width throws std::logic_error (an entry never silently holds
  /// both tables — that would double the cache's memory accounting).
  const TwiddleTable& twiddles(TwiddleDirection dir) const;
  const TwiddleTableF& twiddles_f32(TwiddleDirection dir) const;

  /// Precision-generic accessor for templated executor internals.
  template <typename T>
  const BasicTwiddleTable<T>& twiddles_for(TwiddleDirection dir) const {
    if constexpr (std::is_same_v<T, float>)
      return twiddles_f32(dir);
    else
      return twiddles(dir);
  }

  /// The log2(n)-bit reversal of every index g < n: the permuted gather
  /// of the whole-transform sweep (run_transform_split). Built with the
  /// forward twiddle table, for either precision. Classic only.
  std::span<const std::uint32_t> bitrev() const {
    return require_classic().bitrev_;
  }

  // ---- Hierarchical entries only ----

  const HierarchicalSplit& split() const { return require_hierarchical().split_; }
  const std::shared_ptr<const PlanEntry>& col_entry() const {
    return require_hierarchical().col_entry_;
  }
  const std::shared_ptr<const PlanEntry>& row_entry() const {
    return require_hierarchical().row_entry_;
  }

  // ---- Mixed-radix entries only ----

  const MixedRadixPlan& mixed_plan() const;
  /// Flat per-stage twiddle vector (mixed_radix_twiddles layout). Forward
  /// always exists at the key's precision; inverse builds lazily. Asking
  /// for the other precision throws std::logic_error, mirroring
  /// twiddles()/twiddles_f32().
  std::span<const cplx> mixed_twiddles(TwiddleDirection dir) const;
  std::span<const cplx32> mixed_twiddles_f32(TwiddleDirection dir) const;
  template <typename T>
  std::span<const cplx_t<T>> mixed_twiddles_for(TwiddleDirection dir) const {
    if constexpr (std::is_same_v<T, float>)
      return mixed_twiddles_f32(dir);
    else
      return mixed_twiddles(dir);
  }

  // ---- Bluestein entries only ----

  /// Convolution length M = bluestein_fft_size(n) of this entry.
  std::uint64_t conv_size() const;
  /// Chirp c[j] = exp(-+ pi i j^2 / n), length n, for the given OUTER
  /// transform direction (the inner M-point FFTs are always one forward
  /// plus one inverse regardless).
  std::span<const cplx> chirp(TwiddleDirection dir) const;
  std::span<const cplx32> chirp_f32(TwiddleDirection dir) const;
  /// FFT_M of the chirp filter b (b[j] = b[M-j] = conj(c[j])), length M.
  std::span<const cplx> chirp_fft(TwiddleDirection dir) const;
  std::span<const cplx32> chirp_fft_f32(TwiddleDirection dir) const;
  template <typename T>
  std::span<const cplx_t<T>> chirp_for(TwiddleDirection dir) const {
    if constexpr (std::is_same_v<T, float>)
      return chirp_f32(dir);
    else
      return chirp(dir);
  }
  template <typename T>
  std::span<const cplx_t<T>> chirp_fft_for(TwiddleDirection dir) const {
    if constexpr (std::is_same_v<T, float>)
      return chirp_fft_f32(dir);
    else
      return chirp_fft(dir);
  }

 private:
  const PlanEntry& require_classic() const;
  const PlanEntry& require_hierarchical() const;
  const PlanEntry& require_mixed() const;
  const PlanEntry& require_bluestein() const;
  void build_bluestein(TwiddleDirection dir, std::vector<cplx>& chirp_out,
                       std::vector<cplx>& bfft_out) const;
  void build_inverse_tables() const;

  PlanKey key_;
  // Classic state (null/empty for the other kinds). Exactly one of the
  // forward_/forward32_ pair is populated, chosen by key_.precision.
  std::vector<std::uint32_t> bitrev_;
  std::unique_ptr<TwiddleTable> forward_;
  std::unique_ptr<TwiddleTableF> forward32_;
  mutable std::once_flag inverse_once_;
  mutable std::unique_ptr<TwiddleTable> inverse_;
  mutable std::unique_ptr<TwiddleTableF> inverse32_;
  // Hierarchical state (empty for classic entries).
  HierarchicalSplit split_;
  std::shared_ptr<const PlanEntry> col_entry_;
  std::shared_ptr<const PlanEntry> row_entry_;
  // Mixed-radix state (kMixedRadix only). One precision populated, like
  // the classic tables; inverse vectors fill under inverse_once_.
  std::unique_ptr<MixedRadixPlan> mixed_;
  std::vector<cplx> mixed_fwd_;
  std::vector<cplx32> mixed_fwd32_;
  mutable std::vector<cplx> mixed_inv_;
  mutable std::vector<cplx32> mixed_inv32_;
  // Bluestein state (kBluestein only): chirp (length n) and chirp-filter
  // FFT (length M) per outer direction, one precision populated.
  std::uint64_t conv_n_ = 0;
  std::vector<cplx> chirp_fwd_;
  std::vector<cplx32> chirp_fwd32_;
  std::vector<cplx> bfft_fwd_;
  std::vector<cplx32> bfft_fwd32_;
  mutable std::vector<cplx> chirp_inv_;
  mutable std::vector<cplx32> chirp_inv32_;
  mutable std::vector<cplx> bfft_inv_;
  mutable std::vector<cplx32> bfft_inv32_;
};

struct PlanCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  /// Entries resident at the time of the stats() call (<= capacity). A
  /// snapshot, not a counter — together with hits/misses/evictions it is
  /// the residency picture fft_loadgen and fft_lint --cache-stats print.
  std::uint64_t entries = 0;
};

/// Mutex-guarded LRU map from PlanKey to shared immutable PlanEntry.
/// Entry construction (the O(N) trig) happens outside the lock; when two
/// threads race to build the same key the first insertion wins and the
/// loser adopts the resident entry.
class PlanCache {
 public:
  explicit PlanCache(std::size_t capacity = 16);

  /// Return the cached entry for `key`, building and inserting it on miss
  /// (evicting the least recently used entry when over capacity). A
  /// kHierarchical key first acquires its classic sub-entries (length n1
  /// and n2 of hierarchical_split), so they stay independently cached and
  /// shared with direct transforms of the same size.
  std::shared_ptr<const PlanEntry> acquire(const PlanKey& key);

  std::size_t size() const;
  std::size_t capacity() const noexcept { return capacity_; }
  PlanCacheStats stats() const;
  void clear();

 private:
  using LruList = std::list<std::pair<PlanKey, std::shared_ptr<const PlanEntry>>>;

  std::size_t capacity_;
  mutable std::mutex mutex_;
  LruList lru_;  // front = most recently used
  std::unordered_map<PlanKey, LruList::iterator, PlanKeyHash> map_;
  PlanCacheStats stats_;
};

}  // namespace c64fft::fft
