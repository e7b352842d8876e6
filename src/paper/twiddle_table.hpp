#pragma once
// The paper's twiddle-factor table W[t] = exp(-2*pi*i * t / N),
// t in [0, N/2), read by the reproduction harness's codelets and modelled
// by the simulator and the static analyzer.
//
// Two storage layouts (Section IV-B):
//  * kLinear      — W[t] stored at index t. Early-stage accesses have
//                   strides that are multiples of 4 elements, so on the
//                   64 B-interleaved DRAM they all hit the bank holding
//                   the array base (the paper's bank-0 hotspot).
//  * kBitReversed — W[t] stored at index BR(t) over log2(N/2) bits (the
//                   paper's software "hash"). Accesses spread uniformly
//                   over the banks at the price of computing BR on every
//                   access.
//
// The table is precision-generic (BasicTwiddleTable<T>, T in {float,
// double}); every entry is fft::unit_root<T>, so the f32 table is the
// correctly rounded image of the f64 one and both hold the same bits as
// the production sweep's per-level planes (fft/twiddle.hpp LevelTwiddles).

#include <cstdint>
#include <span>
#include <vector>

#include "fft/twiddle.hpp"
#include "fft/types.hpp"
#include "util/bit_ops.hpp"

namespace c64fft::fft {

enum class TwiddleLayout { kLinear, kBitReversed };

template <typename T>
class BasicTwiddleTable {
 public:
  /// Precompute the N/2 twiddles of an N-point transform (N = power of
  /// two, N >= 2) in the given layout.
  BasicTwiddleTable(std::uint64_t n, TwiddleLayout layout,
                    TwiddleDirection direction = TwiddleDirection::kForward);

  std::uint64_t fft_size() const noexcept { return n_; }
  std::uint64_t size() const noexcept { return table_.size(); }
  TwiddleLayout layout() const noexcept { return layout_; }
  TwiddleDirection direction() const noexcept { return direction_; }
  /// Significant bits of a table index (log2(N/2)); the hash cost model
  /// charges per-access work proportional to this.
  unsigned index_bits() const noexcept { return bits_; }

  /// Storage slot of logical twiddle index `t` (identity for kLinear).
  std::uint64_t storage_index(std::uint64_t t) const noexcept {
    return layout_ == TwiddleLayout::kLinear ? t : util::bit_reverse(t, bits_);
  }

  /// W[t] (logical index, layout-transparent).
  cplx_t<T> at(std::uint64_t t) const noexcept {
    return table_[storage_index(t)];
  }

  /// Raw storage (for address/bank analysis).
  std::span<const cplx_t<T>> storage() const noexcept { return table_; }

 private:
  std::uint64_t n_;
  TwiddleLayout layout_;
  TwiddleDirection direction_;
  unsigned bits_;
  std::vector<cplx_t<T>> table_;
};

extern template class BasicTwiddleTable<float>;
extern template class BasicTwiddleTable<double>;

/// The double-precision table (historical name) and its f32 sibling.
using TwiddleTable = BasicTwiddleTable<double>;
using TwiddleTableF = BasicTwiddleTable<float>;

}  // namespace c64fft::fft
