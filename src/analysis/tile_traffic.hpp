#pragma once
// Per-level tile-traffic report over a PipelineModel.
//
// The memory-load-balance lens of the paper, applied to the composite
// pipelines: for every barrier phase ("level" of the hierarchical
// decomposition), the bytes its tasks stream, split into data movement
// (transpose tiles, gathers, writebacks, permutations)
// versus in-place butterfly traffic, plus a per-phase skew diagnostic —
// one tile task moving far more bytes than its phase's mean is exactly
// the imbalance that leaves the rest of the team idle at the phase's
// barrier. The split is derived from the footprint algebra
// (PipelineTask::movement_passes), so a fused task (the hierarchical
// tail: gather-in + row sweep + writeback-out) charges each side
// honestly.

#include "analysis/pipeline.hpp"
#include "analysis/report.hpp"

namespace c64fft::analysis {

struct TileTrafficOptions {
  /// Phase flagged when max task bytes / mean task bytes exceeds this
  /// (phases with >= 2 tasks only).
  double imbalance_threshold = 1.75;
  /// Promote the imbalance warnings to errors.
  bool strict = false;
  /// Diagnostic cap, matching the other checks.
  std::size_t max_diagnostics = 8;
};

/// Computes the per-phase traffic table and emits "tile-traffic-imbalance"
/// diagnostics. Metrics: transpose_bytes, butterfly_bytes, total_bytes,
/// transpose_fraction, max_traffic_imbalance, and per-phase
/// phase{i}_{transpose_bytes,butterfly_bytes,traffic_imbalance}.
CheckResult report_tile_traffic(const PipelineModel& model,
                                const TileTrafficOptions& opts = {});

}  // namespace c64fft::analysis
