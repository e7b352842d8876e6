#include "fft/plan.hpp"

#include <stdexcept>

#include "util/bit_ops.hpp"

namespace c64fft::fft {

void validate_fft_shape(std::uint64_t n) {
  if (n < 2) throw std::invalid_argument("fft: size must be >= 2");
}

HierarchicalSplit hierarchical_split(std::uint64_t n) {
  if (!util::is_pow2(n) || n < 4)
    throw std::invalid_argument(
        "hierarchical_split: N must be a power of two >= 4");
  HierarchicalSplit split;
  split.n1 = std::uint64_t{1} << (util::ilog2(n) / 2);
  split.n2 = n / split.n1;
  return split;
}

}  // namespace c64fft::fft
