#include "fft/plan_cache.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "fft/reference.hpp"
#include "util/bit_ops.hpp"

namespace c64fft::fft {

namespace {

std::vector<cplx32> narrow(const std::vector<cplx>& v) {
  std::vector<cplx32> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i)
    out[i] = cplx32(static_cast<float>(v[i].real()),
                    static_cast<float>(v[i].imag()));
  return out;
}

}  // namespace

PlanEntry::PlanEntry(const PlanKey& key) : key_(key) {
  if (key.kind == PlanKind::kMixedRadix) {
    mixed_ = std::make_unique<MixedRadixPlan>(key.n);
    if (key.precision == Precision::kF32)
      mixed_fwd32_ =
          mixed_radix_twiddles<float>(*mixed_, TwiddleDirection::kForward);
    else
      mixed_fwd_ =
          mixed_radix_twiddles<double>(*mixed_, TwiddleDirection::kForward);
    return;
  }
  if (key.kind == PlanKind::kBluestein) {
    if (key.n < 2)
      throw std::invalid_argument("PlanEntry: Bluestein size must be >= 2");
    conv_n_ = bluestein_fft_size(key.n);
    std::vector<cplx> chirp, bfft;
    build_bluestein(TwiddleDirection::kForward, chirp, bfft);
    if (key.precision == Precision::kF32) {
      chirp_fwd32_ = narrow(chirp);
      bfft_fwd32_ = narrow(bfft);
    } else {
      chirp_fwd_ = std::move(chirp);
      bfft_fwd_ = std::move(bfft);
    }
    return;
  }
  if (key.kind != PlanKind::kClassic)
    throw std::invalid_argument(
        "PlanEntry: single-key constructor requires kClassic, kMixedRadix, "
        "or kBluestein");
  // The table constructor rejects sizes that are not a power of two >= 2.
  if (key.precision == Precision::kF32)
    forward32_ = std::make_unique<TwiddleTableF>(key.n, TwiddleLayout::kLinear);
  else
    forward_ = std::make_unique<TwiddleTable>(key.n, TwiddleLayout::kLinear);
  const unsigned bits = util::ilog2(key.n);
  bitrev_.resize(key.n);
  for (std::uint64_t i = 0; i < key.n; ++i)
    bitrev_[i] = static_cast<std::uint32_t>(util::bit_reverse(i, bits));
}

void PlanEntry::build_bluestein(TwiddleDirection dir,
                                std::vector<cplx>& chirp_out,
                                std::vector<cplx>& bfft_out) const {
  // Everything evaluates in double regardless of the entry precision (the
  // f32 tables are narrowed images), including the chirp-filter FFT: the
  // serial pow2 reference keeps the filter's own rounding at f64.
  const std::uint64_t n = key_.n;
  chirp_out.resize(n);
  for (std::uint64_t j = 0; j < n; ++j)
    chirp_out[j] = bluestein_chirp<double>(n, j, dir);
  bfft_out.assign(conv_n_, cplx{});
  bfft_out[0] = std::conj(chirp_out[0]);
  for (std::uint64_t j = 1; j < n; ++j) {
    const cplx b = std::conj(chirp_out[j]);
    bfft_out[j] = b;
    bfft_out[conv_n_ - j] = b;
  }
  fft_serial_inplace(std::span<cplx>(bfft_out));
}

void PlanEntry::build_inverse_tables() const {
  if (key_.kind == PlanKind::kMixedRadix) {
    if (key_.precision == Precision::kF32)
      mixed_inv32_ =
          mixed_radix_twiddles<float>(*mixed_, TwiddleDirection::kInverse);
    else
      mixed_inv_ =
          mixed_radix_twiddles<double>(*mixed_, TwiddleDirection::kInverse);
    return;
  }
  std::vector<cplx> chirp, bfft;
  build_bluestein(TwiddleDirection::kInverse, chirp, bfft);
  if (key_.precision == Precision::kF32) {
    chirp_inv32_ = narrow(chirp);
    bfft_inv32_ = narrow(bfft);
  } else {
    chirp_inv_ = std::move(chirp);
    bfft_inv_ = std::move(bfft);
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
      col_entry_->key().n != split_.n1 || row_entry_->key().n != split_.n2 ||
      col_entry_->kind() != PlanKind::kClassic ||
      row_entry_->kind() != PlanKind::kClassic ||
      col_entry_->precision() != key.precision ||
      row_entry_->precision() != key.precision)
    throw std::invalid_argument(
        "PlanEntry: hierarchical split/sub-entry mismatch");
}

const PlanEntry& PlanEntry::require_classic() const {
  if (key_.kind != PlanKind::kClassic)
    throw std::logic_error("PlanEntry: classic-only accessor on a composite entry");
  return *this;
}

const PlanEntry& PlanEntry::require_hierarchical() const {
  if (key_.kind != PlanKind::kHierarchical)
    throw std::logic_error(
        "PlanEntry: hierarchical accessor on a non-hierarchical entry");
  return *this;
}

const PlanEntry& PlanEntry::require_mixed() const {
  if (key_.kind != PlanKind::kMixedRadix)
    throw std::logic_error(
        "PlanEntry: mixed-radix accessor on a non-mixed-radix entry");
  return *this;
}

const PlanEntry& PlanEntry::require_bluestein() const {
  if (key_.kind != PlanKind::kBluestein)
    throw std::logic_error(
        "PlanEntry: Bluestein accessor on a non-Bluestein entry");
  return *this;
}

const MixedRadixPlan& PlanEntry::mixed_plan() const {
  return *require_mixed().mixed_;
}

std::span<const cplx> PlanEntry::mixed_twiddles(TwiddleDirection dir) const {
  const PlanEntry& e = require_mixed();
  if (e.key_.precision != Precision::kF64)
    throw std::logic_error("PlanEntry: f64 twiddle accessor on an f32 entry");
  if (dir == TwiddleDirection::kForward) return e.mixed_fwd_;
  std::call_once(inverse_once_, [this] { build_inverse_tables(); });
  return mixed_inv_;
}

std::span<const cplx32> PlanEntry::mixed_twiddles_f32(
    TwiddleDirection dir) const {
  const PlanEntry& e = require_mixed();
  if (e.key_.precision != Precision::kF32)
    throw std::logic_error("PlanEntry: f32 twiddle accessor on an f64 entry");
  if (dir == TwiddleDirection::kForward) return e.mixed_fwd32_;
  std::call_once(inverse_once_, [this] { build_inverse_tables(); });
  return mixed_inv32_;
}

std::uint64_t PlanEntry::conv_size() const {
  return require_bluestein().conv_n_;
}

std::span<const cplx> PlanEntry::chirp(TwiddleDirection dir) const {
  const PlanEntry& e = require_bluestein();
  if (e.key_.precision != Precision::kF64)
    throw std::logic_error("PlanEntry: f64 chirp accessor on an f32 entry");
  if (dir == TwiddleDirection::kForward) return e.chirp_fwd_;
  std::call_once(inverse_once_, [this] { build_inverse_tables(); });
  return chirp_inv_;
}

std::span<const cplx32> PlanEntry::chirp_f32(TwiddleDirection dir) const {
  const PlanEntry& e = require_bluestein();
  if (e.key_.precision != Precision::kF32)
    throw std::logic_error("PlanEntry: f32 chirp accessor on an f64 entry");
  if (dir == TwiddleDirection::kForward) return e.chirp_fwd32_;
  std::call_once(inverse_once_, [this] { build_inverse_tables(); });
  return chirp_inv32_;
}

std::span<const cplx> PlanEntry::chirp_fft(TwiddleDirection dir) const {
  const PlanEntry& e = require_bluestein();
  if (e.key_.precision != Precision::kF64)
    throw std::logic_error("PlanEntry: f64 chirp accessor on an f32 entry");
  if (dir == TwiddleDirection::kForward) return e.bfft_fwd_;
  std::call_once(inverse_once_, [this] { build_inverse_tables(); });
  return bfft_inv_;
}

std::span<const cplx32> PlanEntry::chirp_fft_f32(TwiddleDirection dir) const {
  const PlanEntry& e = require_bluestein();
  if (e.key_.precision != Precision::kF32)
    throw std::logic_error("PlanEntry: f32 chirp accessor on an f64 entry");
  if (dir == TwiddleDirection::kForward) return e.bfft_fwd32_;
  std::call_once(inverse_once_, [this] { build_inverse_tables(); });
  return bfft_inv32_;
}

const TwiddleTable& PlanEntry::twiddles(TwiddleDirection dir) const {
  const PlanEntry& e = require_classic();
  if (e.key_.precision != Precision::kF64)
    throw std::logic_error("PlanEntry: f64 twiddle accessor on an f32 entry");
  if (dir == TwiddleDirection::kForward) return *e.forward_;
  std::call_once(inverse_once_, [this] {
    inverse_ = std::make_unique<TwiddleTable>(key_.n, TwiddleLayout::kLinear,
                                              TwiddleDirection::kInverse);
  });
  return *inverse_;
}

const TwiddleTableF& PlanEntry::twiddles_f32(TwiddleDirection dir) const {
  const PlanEntry& e = require_classic();
  if (e.key_.precision != Precision::kF32)
    throw std::logic_error("PlanEntry: f32 twiddle accessor on an f64 entry");
  if (dir == TwiddleDirection::kForward) return *e.forward32_;
  std::call_once(inverse_once_, [this] {
    inverse32_ = std::make_unique<TwiddleTableF>(
        key_.n, TwiddleLayout::kLinear, TwiddleDirection::kInverse);
  });
  return *inverse32_;
}

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
    ++stats_.misses;
  }

  // O(N) plan + trig build runs unlocked; a losing racer adopts the entry
  // the winner inserted.
  std::shared_ptr<const PlanEntry> entry;
  if (key.kind == PlanKind::kHierarchical) {
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
