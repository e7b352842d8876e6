#pragma once
// Static DRAM bank-balance lint (fft_lint check "banks").
//
// Pushes every modelled data and twiddle access through the
// c64::AddressMap (64 B round-robin interleave over 4 banks by default)
// and flags layouts whose traffic concentrates beyond a threshold. This
// statically reproduces the paper's Fig. 1 finding — the linear twiddle
// layout funnels the early stages' twiddle loads onto the bank holding
// the table base, bank 0 — and certifies that the bit-reversed ("hashed",
// Fig. 6) layout spreads them evenly. Imbalance is measured exactly as in
// fft::TrafficCensus: hottest-bank accesses divided by the per-bank mean.
//
// Bank imbalance is a performance hazard, not a correctness bug, so the
// findings are warnings by default; `strict` promotes them to errors.

#include <cstdint>

#include "analysis/model.hpp"
#include "analysis/report.hpp"

namespace c64fft::analysis {

struct BankLintOptions {
  unsigned banks = 4;
  unsigned interleave_bytes = 64;
  /// 0 = inherit PlanModel::element_bytes (16 for a double-complex model);
  /// a nonzero value overrides it, e.g. to re-lint an f64 model at f32
  /// width (8) without rebuilding it.
  unsigned element_bytes = 0;
  /// Byte addresses of the two arrays (interleave-aligned bank-0 bases,
  /// as in the paper's setup).
  std::uint64_t data_base = 0;
  std::uint64_t twiddle_base = 0;
  /// Flag when max-bank / mean-bank exceeds this (paper reports ~3x on
  /// the hotspot; 1.5 keeps headroom over the ~1.0 of balanced layouts).
  double imbalance_threshold = 1.5;
  /// Emit bank findings as errors instead of warnings.
  bool strict = false;
};

CheckResult lint_banks(const PlanModel& model, const BankLintOptions& opts = {});

/// Host-cache analogue of the bank lint (fft_lint check "cache-sets",
/// opt-in via --cache-sets). A set-associative cache indexes lines by
/// set_of(addr) = (addr / line_bytes) mod sets — the same modular algebra
/// as the DRAM round-robin interleave, so a power-of-two access stride
/// folds onto a handful of sets exactly the way the linear twiddle layout
/// folds onto bank 0. The late stages of a classic large-N plan stride by
/// R^s elements; once stride_bytes/line_bytes is a multiple of `sets`,
/// EVERY element of a chain lands in one set and the stage thrashes its
/// associativity ways instead of using the whole cache. The hierarchical
/// path exists to avoid precisely this regime (its sub-FFTs and blocked
/// transposes keep strides inside a tile).
struct CacheSetLintOptions {
  /// Geometry defaults match this project's reference host L1d:
  /// 48 KiB, 64 B lines, 12-way => 64 sets.
  unsigned sets = 64;
  unsigned line_bytes = 64;
  /// 0 = inherit PlanModel::element_bytes; nonzero overrides (see
  /// BankLintOptions::element_bytes).
  unsigned element_bytes = 0;
  std::uint64_t data_base = 0;
  /// Flag a stage whose typical codelet footprint folds onto fewer sets
  /// than this fraction of the best that footprint could achieve (1/2
  /// keeps the verdict robust to edge stages while still catching the
  /// single-set collapse, which scores 1/footprint).
  double min_set_coverage = 0.5;
  /// Emit findings as errors instead of warnings.
  bool strict = false;
};

/// Per-stage stride -> set-index histogram report over the model's data
/// accesses, judged per codelet (a stage-wide histogram is flat even when
/// every codelet collapses onto one set, because codelet bases differ).
/// Diagnostics use code "cache-set-conflict"; metrics expose
/// stage{s}_stride / stage{s}_chain_lines / stage{s}_chain_sets /
/// stage{s}_stage_sets_touched.
CheckResult lint_cache_sets(const PlanModel& model,
                            const CacheSetLintOptions& opts = {});

}  // namespace c64fft::analysis
