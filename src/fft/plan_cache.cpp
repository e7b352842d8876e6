#include "fft/plan_cache.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>

#include "fft/kernel.hpp"
#include "util/bit_ops.hpp"

namespace c64fft::fft {

namespace {

/// The per-level twiddle planes of an n-point sweep (LevelTwiddles
/// layout): n/2 trig calls fill the top level, and every lower level is
/// copied from it — level v's u-th twiddle is the top level's entry
/// u << (log2 n - v - 1). The same unit_root<T> values the paper's linear
/// table holds, so the sweep multiplies the same bits.
template <typename T>
void fill_level_twiddles(std::uint64_t n, TwiddleDirection dir, T* re,
                         T* im) {
  const std::uint64_t top = n / 2;
  for (std::uint64_t u = 0; u < top; ++u) {
    const cplx_t<T> w = unit_root<T>(n, u, dir);
    re[top + u] = w.real();
    im[top + u] = w.imag();
  }
  for (std::uint64_t half = top / 2; half >= 1; half /= 2)
    for (std::uint64_t u = 0; u < half; ++u) {
      re[half + u] = re[top + u * (top / half)];
      im[half + u] = im[top + u * (top / half)];
    }
}

}  // namespace

PlanEntry::PlanEntry(const PlanKey& key,
                     std::shared_ptr<const PlanEntry> conv_entry)
    : key_(key), conv_entry_(std::move(conv_entry)) {
  switch (key.kind) {
    case PlanKind::kClassic: {
      if (!util::is_pow2(key.n) || key.n < 2 ||
          util::ilog2(key.n) > kMaxSweepLog2)
        throw std::invalid_argument(
            "PlanEntry: classic size must be a power of two in [2, 2^30]");
      const unsigned bits = util::ilog2(key.n);
      bitrev_.resize(key.n);
      for (std::uint64_t i = 0; i < key.n; ++i)
        bitrev_[i] = static_cast<std::uint32_t>(util::bit_reverse(i, bits));
      break;
    }
    case PlanKind::kMixedRadix:
      mixed_ = std::make_unique<MixedRadixPlan>(key.n);
      break;
    case PlanKind::kBluestein:
      if (!conv_entry_ || conv_entry_->key().n != bluestein_fft_size(key.n) ||
          conv_entry_->precision() != key.precision ||
          (conv_entry_->kind() != PlanKind::kClassic &&
           conv_entry_->kind() != PlanKind::kHierarchical))
        throw std::invalid_argument(
            "PlanEntry: Bluestein convolution entry mismatch");
      break;
    case PlanKind::kHierarchical:
      throw std::invalid_argument(
          "PlanEntry: single-key constructor requires kClassic, kMixedRadix, "
          "or kBluestein");
  }
  if (key.precision == Precision::kF32)
    build_tables<float>(TwiddleDirection::kForward, f32_[0]);
  else
    build_tables<double>(TwiddleDirection::kForward, f64_[0]);
}

template <typename T>
void PlanEntry::build_tables(TwiddleDirection dir, Tables<T>& out) const {
  const std::uint64_t n = key_.n;
  if (key_.kind == PlanKind::kClassic) {
    out.levels = util::AlignedBuffer<T>(2 * n);
    fill_level_twiddles<T>(n, dir, out.levels.data(), out.levels.data() + n);
  } else if (key_.kind == PlanKind::kMixedRadix) {
    out.mixed = mixed_radix_twiddles<T>(*mixed_, dir);
  } else if (key_.kind == PlanKind::kBluestein) {
    // Everything evaluates in double regardless of the entry precision
    // (the f32 tables are narrowed images), including the chirp-filter
    // FFT: one production sweep over a transient f64 classic entry keeps
    // the filter's own rounding at f64, whatever the convolution's kind
    // and precision.
    const std::uint64_t m = conv_entry_->key().n;
    std::vector<cplx> chirp(n);
    for (std::uint64_t j = 0; j < n; ++j)
      chirp[j] = bluestein_chirp<double>(n, j, dir);
    std::vector<cplx> bfft(m);
    bfft[0] = std::conj(chirp[0]);
    for (std::uint64_t j = 1; j < n; ++j) {
      const cplx b = std::conj(chirp[j]);
      bfft[j] = b;
      bfft[m - j] = b;
    }
    const PlanEntry sweep(PlanKey{m, PlanKind::kClassic, Precision::kF64});
    util::AlignedBuffer<double> split(2 * m);
    run_transform_split(bfft,
                        sweep.level_twiddles<double>(TwiddleDirection::kForward),
                        sweep.bitrev(), split.data());
    out.chirp.assign(chirp.begin(), chirp.end());
    out.chirp_fft.assign(bfft.begin(), bfft.end());
  }
}

PlanEntry::PlanEntry(const PlanKey& key, HierarchicalSplit split,
                     std::shared_ptr<const PlanEntry> col_entry,
                     std::shared_ptr<const PlanEntry> row_entry)
    : key_(key),
      split_(split),
      col_entry_(std::move(col_entry)),
      row_entry_(std::move(row_entry)) {
  if (key.kind != PlanKind::kHierarchical)
    throw std::invalid_argument(
        "PlanEntry: hierarchical constructor requires kHierarchical key");
  if (split_.n1 * split_.n2 != key.n || !col_entry_ || !row_entry_ ||
      col_entry_->key() != PlanKey{split_.n1, PlanKind::kClassic,
                                   key.precision} ||
      row_entry_->key() != PlanKey{split_.n2, PlanKind::kClassic,
                                   key.precision})
    throw std::invalid_argument(
        "PlanEntry: hierarchical split/sub-entry mismatch");
}

const PlanEntry& PlanEntry::require(PlanKind kind) const {
  if (key_.kind != kind)
    throw std::logic_error("PlanEntry: accessor of another plan kind");
  return *this;
}

template <typename T>
const PlanEntry::Tables<T>& PlanEntry::tables(PlanKind kind,
                                              TwiddleDirection dir) const {
  require(kind);
  if (key_.precision != precision_of<T>)
    throw std::logic_error(std::string("PlanEntry: ") +
                           to_string(precision_of<T>) + " accessor on an " +
                           to_string(key_.precision) + " entry");
  std::array<Tables<T>, 2>& by_dir = [this]() -> std::array<Tables<T>, 2>& {
    if constexpr (std::is_same_v<T, float>)
      return f32_;
    else
      return f64_;
  }();
  if (dir == TwiddleDirection::kForward) return by_dir[0];
  std::call_once(inverse_once_, [&] {
    build_tables<T>(TwiddleDirection::kInverse, by_dir[1]);
  });
  return by_dir[1];
}

template const PlanEntry::Tables<float>& PlanEntry::tables<float>(
    PlanKind, TwiddleDirection) const;
template const PlanEntry::Tables<double>& PlanEntry::tables<double>(
    PlanKind, TwiddleDirection) const;

PlanCache::PlanCache(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {}

std::shared_ptr<const PlanEntry> PlanCache::acquire(const PlanKey& key) {
  {
    std::lock_guard lock(mutex_);
    auto it = map_.find(key);
    if (it != map_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++stats_.hits;
      return it->second->second;
    }
  }

  // O(N) plan + trig build runs unlocked; a losing racer adopts the entry
  // the winner inserted. A key whose build throws counts no miss.
  std::shared_ptr<const PlanEntry> entry;
  if (key.kind == PlanKind::kBluestein) {
    // The convolution takes the key a direct M-point call builds, so the
    // two share one entry.
    const std::uint64_t m = bluestein_fft_size(key.n);
    entry = std::make_shared<const PlanEntry>(
        key, acquire(PlanKey{m, routed_plan_kind(m), key.precision}));
  } else if (key.kind == PlanKind::kHierarchical) {
    // Both factors are classic entries under the keys a direct call of
    // the sub-size builds; a square split shares one.
    const HierarchicalSplit split = hierarchical_split(key.n);
    std::shared_ptr<const PlanEntry> col;
    if (split.n1 != split.n2)
      col = acquire(PlanKey{split.n1, PlanKind::kClassic, key.precision});
    auto row = acquire(PlanKey{split.n2, PlanKind::kClassic, key.precision});
    if (!col) col = row;
    entry = std::make_shared<const PlanEntry>(key, split, std::move(col),
                                              std::move(row));
  } else {
    entry = std::make_shared<const PlanEntry>(key);
  }

  std::lock_guard lock(mutex_);
  ++stats_.misses;
  auto it = map_.find(key);
  if (it != map_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->second;
  }
  lru_.emplace_front(key, entry);
  map_.emplace(key, lru_.begin());
  while (lru_.size() > capacity_) {
    map_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
  return entry;
}

std::size_t PlanCache::size() const {
  std::lock_guard lock(mutex_);
  return lru_.size();
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard lock(mutex_);
  PlanCacheStats s = stats_;
  s.entries = lru_.size();
  return s;
}

void PlanCache::clear() {
  std::lock_guard lock(mutex_);
  lru_.clear();
  map_.clear();
}

}  // namespace c64fft::fft
