#pragma once
// Pure-algebra traffic analytics over an FftPlan: how many element
// accesses each DRAM bank receives per stage, split by data vs twiddle
// stream — the analytical counterpart of the simulator's BankTrace, and
// the numbers behind the paper's "bank 0 is accessed three times more"
// observation (Section II).

#include <array>
#include <cstdint>
#include <vector>

#include "paper/fft_plan.hpp"
#include "paper/twiddle_table.hpp"

namespace c64fft::fft {

struct StageTraffic {
  std::uint32_t stage = 0;
  /// Element accesses (loads + stores) per bank from the data array.
  std::vector<std::uint64_t> data_accesses;
  /// Element accesses per bank from the twiddle array.
  std::vector<std::uint64_t> twiddle_accesses;

  std::uint64_t bank_total(unsigned b) const {
    return data_accesses.at(b) + twiddle_accesses.at(b);
  }
  /// max-bank / mean-bank ratio of the stage's total accesses.
  double imbalance() const;
};

/// Per-stage per-bank access census of a whole plan under the given
/// twiddle layout and array base addresses (both interleave-aligned by
/// default, as in the paper's setup). `element_bytes` is the runtime size
/// of one complex element (16 for cplx, 8 for cplx32): halving it folds
/// twice as many consecutive elements onto one interleave unit, which
/// genuinely changes which strides collide on a bank — the f32 census of
/// a plan is NOT the f64 census scaled.
class TrafficCensus {
 public:
  TrafficCensus(const FftPlan& plan, TwiddleLayout layout, unsigned banks = 4,
                unsigned interleave_bytes = 64, std::uint64_t data_base = 0,
                std::uint64_t twiddle_base = 0, unsigned element_bytes = 16);

  const std::vector<StageTraffic>& stages() const noexcept { return stages_; }

  /// Whole-run per-bank totals.
  std::vector<std::uint64_t> totals() const;

  /// Whole-run max/mean ratio.
  double total_imbalance() const;

  /// Lower bound on the makespan of ANY schedule, in cycles: the busiest
  /// bank's total occupancy at `bytes_per_cycle` service. This is the
  /// order-invariance bound discussed in DESIGN.md §2.1.
  double schedule_invariant_bound_cycles(double bytes_per_cycle,
                                         unsigned element_bytes = 16) const;

 private:
  std::vector<StageTraffic> stages_;
  unsigned banks_;
};

}  // namespace c64fft::fft
