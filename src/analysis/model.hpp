#pragma once
// Analyzable model of one scheduled FFT plan — the input language of the
// static analyzer (fft_lint).
//
// A PlanModel makes everything the runtime keeps implicit explicit: each
// codelet's read/write footprint on the data array, its twiddle storage
// slots (layout already applied), the producer->consumer dependency DAG,
// and the shared-counter declarations (sibling groups, thresholds) a
// DependencyCounters table would be built from. The analyzer never runs a
// codelet; it proves properties of this model — and tests seed defects by
// mutating a model built from a correct plan.

#include <cstdint>
#include <string>
#include <vector>

#include "paper/codelet.hpp"
#include "paper/fft_plan.hpp"
#include "paper/graph.hpp"
#include "paper/twiddle_table.hpp"

namespace c64fft::analysis {

/// How codelets are ordered at runtime: Alg. 1 separates stages with
/// barriers; Alg. 2/3 order only through the shared dependency counters.
enum class Schedule { kBarrier, kCounters };

struct CodeletModel {
  codelet::CodeletKey key;
  /// Data element indices the codelet loads / stores (in-place kernels
  /// read and write the same set, but the model keeps them separate so
  /// defective plans can skew either side).
  std::vector<std::uint64_t> reads;
  std::vector<std::uint64_t> writes;
  /// Twiddle-table *storage* slots loaded (bit-reversal applied for the
  /// hashed layout) — the twiddle array is read-only, so these feed only
  /// the bank lint, never the race check.
  std::vector<std::uint64_t> twiddle_slots;
};

/// One shared dependency counter: the sibling group of `members` (task
/// indices in consumer stage `stage`) becomes ready when `threshold`
/// producer completions have arrived; `producers` are the stage-1 tasks
/// whose completion increments this counter.
struct GroupModel {
  std::uint32_t stage = 0;
  std::uint64_t group = 0;
  std::uint32_t threshold = 0;
  std::vector<std::uint64_t> members;
  std::vector<std::uint64_t> producers;
};

struct PlanModel {
  std::string name;
  std::uint64_t n = 0;
  unsigned radix_log2 = 0;
  std::uint32_t stages = 0;
  Schedule schedule = Schedule::kCounters;
  fft::TwiddleLayout layout = fft::TwiddleLayout::kLinear;
  /// Twiddle-table slots (N/2 for a standard table).
  std::uint64_t twiddle_table_size = 0;
  /// Byte width of one complex element of the modelled transform
  /// (16 = double-complex, 8 = float-complex). The byte-level checks
  /// (bank balance, cache sets) multiply every element index by this, so
  /// the same plan genuinely lints differently at the two precisions.
  unsigned element_bytes = 16;

  std::vector<CodeletModel> codelets;
  /// Producer -> consumer edges; one edge per (producer, consumer) pair of
  /// the plan algebra. Under kCounters this DAG is exactly the ordering
  /// the counters enforce.
  codelet::CodeletGraph graph;
  /// Counter declarations, one per sibling group of every stage >= 1.
  /// Meaningful only under kCounters.
  std::vector<GroupModel> groups;

  /// Position of `key` in `codelets`, or npos if absent.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  std::size_t find(codelet::CodeletKey key) const;
};

/// Builds the model of a shipped plan: footprints from the plan's index
/// algebra, the dependency DAG from parents_of/children_of, and group
/// declarations from the sibling-group algebra (the same numbers
/// fft::fft_host feeds DependencyCounters).
PlanModel build_model(const fft::FftPlan& plan, fft::TwiddleLayout layout,
                      Schedule schedule, std::string name = {});

std::string to_string(Schedule s);

}  // namespace c64fft::analysis
