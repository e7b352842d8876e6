#include "paper/twiddle_table.hpp"

#include <stdexcept>

namespace c64fft::fft {

template <typename T>
BasicTwiddleTable<T>::BasicTwiddleTable(std::uint64_t n, TwiddleLayout layout,
                                        TwiddleDirection direction)
    : n_(n), layout_(layout), direction_(direction) {
  if (!util::is_pow2(n) || n < 2)
    throw std::invalid_argument("TwiddleTable: N must be a power of two >= 2");
  const std::uint64_t m = n / 2;
  bits_ = m > 1 ? util::ilog2(m) : 0;
  table_.resize(m);
  for (std::uint64_t t = 0; t < m; ++t)
    table_[storage_index(t)] = unit_root<T>(n, t, direction);
}

template class BasicTwiddleTable<float>;
template class BasicTwiddleTable<double>;

}  // namespace c64fft::fft
