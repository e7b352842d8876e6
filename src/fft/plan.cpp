#include "fft/plan.hpp"

#include <stdexcept>

#include "util/bit_ops.hpp"

namespace c64fft::fft {

namespace {

/// True when n >= 1 has no prime factor above 7 — factorize(n).smooth
/// without building the stage vector, so routing allocates nothing.
bool seven_smooth(std::uint64_t n) noexcept {
  for (const std::uint64_t p : {2u, 3u, 5u, 7u})
    while (n % p == 0) n /= p;
  return n == 1;
}

}  // namespace

PlanKind routed_plan_kind(std::uint64_t n) noexcept {
  // Non-pow2 routing is factorization-driven: every 7-smooth composite
  // runs the mixed-radix plan, everything else the Bluestein chirp-z path
  // (whose INTERNAL pow2 convolution re-enters here with
  // M = next_pow2(2n-1)).
  if (n >= 2 && !util::is_pow2(n))
    return seven_smooth(n) ? PlanKind::kMixedRadix : PlanKind::kBluestein;
  return n >= 4 && util::ilog2(n) >= kHierarchicalThresholdLog2
             ? PlanKind::kHierarchical
             : PlanKind::kClassic;
}

HierarchicalSplit hierarchical_split(std::uint64_t n) {
  if (!util::is_pow2(n) || n < 4 || util::ilog2(n) > 2 * kMaxSweepLog2)
    throw std::invalid_argument(
        "hierarchical_split: N must be a power of two in [4, 2^60]");
  HierarchicalSplit split;
  split.n1 = std::uint64_t{1} << (util::ilog2(n) / 2);
  split.n2 = n / split.n1;
  return split;
}

bool fft_size_supported(std::uint64_t n) noexcept {
  switch (routed_plan_kind(n)) {
    case PlanKind::kClassic: return n >= 2;
    case PlanKind::kHierarchical: return util::ilog2(n) <= 2 * kMaxSweepLog2;
    case PlanKind::kMixedRadix: return (n >> 32) == 0;
    case PlanKind::kBluestein: return n <= kMaxBluesteinSize;
  }
  return false;
}

void validate_fft_shape(std::uint64_t n) {
  if (!fft_size_supported(n))
    throw std::invalid_argument(
        "fft: size must be >= 2 and within its route's limit (pow2 <= 2^60, "
        "7-smooth < 2^32, any other N <= 2^29)");
}

}  // namespace c64fft::fft
