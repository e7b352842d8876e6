#pragma once
// Tuned execution schedules: the output of the offline autotuner
// (tools/fft_tune) and the input the executor uses to shape its sweeps.
//
// A schedule is keyed by (transform size, precision, kernel ISA) and
// carries the searched knob of the whole-transform sweep:
//   fuse_log2  — how many leading butterfly levels the sweep collapses
//                into one fused pass (3 = radix-8, 2 = radix-4, 0 =
//                per-level loops only),
// plus, for the hierarchical sizes, the leaf and block-row grain below.
// Every knob is pure scheduling: every setting computes bit-identical
// results, only the loop structure (and therefore throughput) changes.
//
// The on-disk form is JSON (see to_json); the executor loads it when
// C64FFT_SCHEDULE names a file, and PlanCache serves lookups. An entry
// tuned for one machine is safe — at worst slower — on another, which is
// why the ISA is part of the key: the tuner records what the kernels were
// running on, and lookups only match schedules tuned for the ISA that is
// actually active.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "fft/types.hpp"
#include "util/cpu_features.hpp"

namespace c64fft::fft {

struct TunedSchedule {
  std::uint64_t n = 0;
  Precision precision = Precision::kF64;
  util::IsaLevel isa = util::IsaLevel::kScalar;
  std::uint32_t fuse_log2 = 3;
  /// Hierarchical-path knobs (tools/fft_tune --hierarchical). 0 means
  /// "planner default" — derive the leaf from the measured cache
  /// hierarchy and the block-row grain from the worker count — and is
  /// omitted from the JSON, so files tuned before these knobs existed
  /// parse (and re-serialize) unchanged.
  ///   hier_leaf_log2  — leaf sub-FFT cap (log2 points) of the recursive
  ///                     split; fixes the level count and every per-level
  ///                     (n1, n2).
  ///   hier_block_rows — rows per pipelined tile-block of the scatter /
  ///                     row-sweep stages.
  std::uint32_t hier_leaf_log2 = 0;
  std::uint32_t hier_block_rows = 0;
};

/// An ordered set of tuned schedules with (n, precision, isa) as the
/// unique key. Small (tens of entries) — lookups scan linearly.
class ScheduleSet {
 public:
  /// Insert or replace the entry with s's key.
  void insert(const TunedSchedule& s);

  std::optional<TunedSchedule> find(std::uint64_t n, Precision precision,
                                    util::IsaLevel isa) const;

  std::size_t size() const noexcept { return entries_.size(); }
  bool empty() const noexcept { return entries_.empty(); }
  const std::vector<TunedSchedule>& entries() const noexcept { return entries_; }

  /// Serialize as {"version":1,"schedules":[...]} (stable field order,
  /// one schedule per line — diff-friendly for committing tuned files).
  std::string to_json() const;

  /// Parse the to_json() format. Unknown fields are ignored — including
  /// the codelet radix that files written before the radix left
  /// production still carry; a missing required field, a bad enum name,
  /// or out-of-range knob values throw std::invalid_argument naming the
  /// offending entry.
  static ScheduleSet from_json(const std::string& text);

  /// from_json() over a file's contents; std::runtime_error when
  /// unreadable.
  static ScheduleSet load_file(const std::string& path);

 private:
  std::vector<TunedSchedule> entries_;
};

}  // namespace c64fft::fft
