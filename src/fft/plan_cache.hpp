#pragma once
// Thread-safe LRU cache of immutable FFT plan entries.
//
// The paper's codelet model assumes the plan and twiddle table exist once
// and transforms stream through them; this cache is that amortization
// layer, and the executor's only table cache. A PlanEntry bundles
// everything a transform of a given shape needs that does not depend on
// the data buffer: for a classic pow2 size the forward (and lazily the
// conjugated inverse) per-level twiddle planes, laid out in the order the
// whole-transform sweep reads them, and the bit-reversal index table; for
// the other kinds their split, stage vector or chirp tables. An entry is
// its whole route — a hierarchical entry pins its two classic factors, a
// Bluestein entry its convolution — so one acquire resolves a call.
// Entries are immutable and handed out as shared_ptr<const PlanEntry>, so
// a cache eviction never invalidates a transform in flight, nor the
// entries it pins. See DESIGN.md "Executor & plan cache".

#include <array>
#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "fft/mixed_radix.hpp"
#include "fft/plan.hpp"
#include "fft/twiddle.hpp"
#include "util/aligned_buffer.hpp"

namespace c64fft::fft {

/// Everything that distinguishes one cached plan from another. `kind` is
/// part of the key — the classic and the hierarchical decomposition of
/// one size are distinct entries (a hierarchical entry's classic
/// sub-entries and a Bluestein entry's convolution are ordinary
/// residents, shared with direct calls of their size). `precision` is
/// part of the key too: an f32 and an f64 transform of the same shape
/// share nothing but the index algebra, and the twiddle tables they pin
/// differ in both element width and content, so they must age through the
/// LRU as separate entries.
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
  /// classic gets the forward per-level twiddle planes and the
  /// bit-reversal index table (every classic transform is one
  /// whole-transform sweep, so no stage plan is kept); mixed-radix gets
  /// the MixedRadixPlan (stage vector + digit-reversal permutation) and
  /// its flat per-stage forward twiddles; Bluestein pins `conv_entry`, its
  /// M-point convolution (M = bluestein_fft_size(n), classic or
  /// hierarchical, same precision; null for the other kinds), and gets the
  /// length-n chirp and the length-M FFT of the chirp filter. Throws
  /// std::invalid_argument for bad shapes (a classic key must be a power
  /// of two in [2, 2^kMaxSweepLog2]) before allocating.
  explicit PlanEntry(const PlanKey& key,
                     std::shared_ptr<const PlanEntry> conv_entry = nullptr);

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

  // ---- Tables, one template over the element type T ----
  //
  // An entry holds its tables at the key's precision only (f32 tables are
  // narrowed images of double-evaluated values): asking for the other T,
  // or for a table of another plan kind, throws std::logic_error — an
  // entry never silently holds both widths, which would double the
  // cache's memory accounting. The forward tables are built with the
  // entry, the inverse ones (exact conjugates) on first request, then
  // kept for the entry's lifetime.

  /// Classic: the n-point sweep's per-level twiddle planes, each level's
  /// span stored where run_transform_split reads it.
  template <typename T>
  LevelTwiddles<T> level_twiddles(TwiddleDirection dir) const {
    const T* const planes = tables<T>(PlanKind::kClassic, dir).levels.data();
    return {{planes, key_.n}, {planes + key_.n, key_.n}};
  }

  /// The log2(n)-bit reversal of every index g < n: the permuted gather
  /// of the whole-transform sweep (run_transform_split). Built with the
  /// entry, for either precision. Classic only.
  std::span<const std::uint32_t> bitrev() const {
    return require(PlanKind::kClassic).bitrev_;
  }

  // ---- Hierarchical entries only ----

  const HierarchicalSplit& split() const {
    return require(PlanKind::kHierarchical).split_;
  }
  const std::shared_ptr<const PlanEntry>& col_entry() const {
    return require(PlanKind::kHierarchical).col_entry_;
  }
  const std::shared_ptr<const PlanEntry>& row_entry() const {
    return require(PlanKind::kHierarchical).row_entry_;
  }

  // ---- Mixed-radix entries only ----

  const MixedRadixPlan& mixed_plan() const {
    return *require(PlanKind::kMixedRadix).mixed_;
  }
  /// Flat per-stage twiddle vector (mixed_radix_twiddles layout).
  template <typename T>
  std::span<const cplx_t<T>> mixed_twiddles(TwiddleDirection dir) const {
    return tables<T>(PlanKind::kMixedRadix, dir).mixed;
  }

  // ---- Bluestein entries only ----

  /// The pinned M-point convolution entry (M = bluestein_fft_size(n)):
  /// both inner FFTs of every transform run over it.
  const std::shared_ptr<const PlanEntry>& conv_entry() const {
    return require(PlanKind::kBluestein).conv_entry_;
  }
  /// Chirp c[j] = exp(-+ pi i j^2 / n), length n, for the given OUTER
  /// transform direction (the inner M-point FFTs are always one forward
  /// plus one inverse regardless).
  template <typename T>
  std::span<const cplx_t<T>> chirp(TwiddleDirection dir) const {
    return tables<T>(PlanKind::kBluestein, dir).chirp;
  }
  /// FFT_M of the chirp filter b (b[j] = b[M-j] = conj(c[j])), length M.
  template <typename T>
  std::span<const cplx_t<T>> chirp_fft(TwiddleDirection dir) const {
    return tables<T>(PlanKind::kBluestein, dir).chirp_fft;
  }

 private:
  /// One direction's tables at one precision; only the kind's own fields
  /// are filled.
  template <typename T>
  struct Tables {
    /// Classic: the re plane, then the im plane (n scalars each), cache
    /// line aligned.
    util::AlignedBuffer<T> levels;
    /// Mixed-radix: the flat per-stage twiddles.
    std::vector<cplx_t<T>> mixed;
    /// Bluestein: the chirp and the chirp-filter FFT.
    std::vector<cplx_t<T>> chirp;
    std::vector<cplx_t<T>> chirp_fft;
  };

  const PlanEntry& require(PlanKind kind) const;
  /// The `kind` tables of direction `dir` at precision T, after the kind
  /// and precision checks; builds the inverse ones on first use.
  template <typename T>
  const Tables<T>& tables(PlanKind kind, TwiddleDirection dir) const;
  template <typename T>
  void build_tables(TwiddleDirection dir, Tables<T>& out) const;

  PlanKey key_;
  // Classic state (empty for the other kinds).
  std::vector<std::uint32_t> bitrev_;
  // Hierarchical state (empty for the other kinds).
  HierarchicalSplit split_;
  std::shared_ptr<const PlanEntry> col_entry_;
  std::shared_ptr<const PlanEntry> row_entry_;
  // Mixed-radix state (kMixedRadix only).
  std::unique_ptr<MixedRadixPlan> mixed_;
  // Bluestein state (kBluestein only).
  std::shared_ptr<const PlanEntry> conv_entry_;
  // Tables by direction (forward, inverse); only the key's precision is
  // filled, the inverse under inverse_once_.
  mutable std::once_flag inverse_once_;
  mutable std::array<Tables<double>, 2> f64_;
  mutable std::array<Tables<float>, 2> f32_;
};

struct PlanCacheStats {
  std::uint64_t hits = 0;
  /// Entries built (a key whose build throws is not one).
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
  /// and n2 of hierarchical_split), a kBluestein key its convolution under
  /// the routed key of M = bluestein_fft_size(n), so they stay
  /// independently cached and shared with direct transforms of their size;
  /// they age in the LRU on their own (a warm call touches one key).
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
