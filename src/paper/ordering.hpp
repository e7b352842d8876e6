#pragma once
// Initial pool orderings for the fine-grain algorithm. The paper observes
// that "the initial order of the ready codelets in the concurrent pool may
// affect the performance a lot" and reports the empirically best and worst
// cases; these named orders (combined with a LIFO/FIFO pop policy) realise
// that sweep.

#include <cstdint>
#include <string>
#include <vector>

#include "paper/codelet.hpp"

namespace c64fft::fft {

enum class SeedOrder {
  kNatural,     ///< 0,1,2,... — with LIFO this completes sibling groups
                ///  quickly and cascades depth-first ("fine best" shape)
  kReverse,     ///< T-1,...,0
  kStrided,     ///< bit-reversed task order — maximally scatters sibling
                ///  groups, delaying group completion ("fine worst" shape)
  kRandom,      ///< deterministic shuffle of the natural order
};

/// Pool discipline + seed order + shuffle seed. The paper's named cases:
///   fine best  ~ {kLifo, kNatural}
///   fine worst ~ {kFifo, kStrided}
struct FineOrdering {
  codelet::PoolPolicy policy = codelet::PoolPolicy::kLifo;
  SeedOrder order = SeedOrder::kNatural;
  std::uint64_t seed = 1;
};

/// The stage-0 task ids (count `tasks`) in the given order.
std::vector<std::uint64_t> make_seed_order(SeedOrder order, std::uint64_t tasks,
                                           std::uint64_t seed);

/// Presets used by benches: the orderings swept to produce the paper's
/// "fine best"/"fine worst" envelope.
std::vector<FineOrdering> ordering_sweep();

class FftPlan;

/// Phase-2 seed order for the guided algorithm (Alg. 3): the tasks of
/// stage last-1, grouped by the last-stage sibling group they enable
/// ("columns"). All members of one column draw their data from the same
/// DRAM bank, so columns are emitted in batches of up to `banks` columns
/// with distinct banks, member-interleaved: a batch completes together
/// (enabling several last-stage groups at once) without turning one bank
/// into a burst hotspot. Bank geometry defaults to the C64 interleave.
std::vector<std::uint64_t> guided_phase2_order(const FftPlan& plan,
                                               unsigned banks = 4,
                                               unsigned interleave_bytes = 64,
                                               unsigned elem_bytes = 16);

std::string to_string(SeedOrder order);
std::string to_string(const FineOrdering& o);

}  // namespace c64fft::fft
