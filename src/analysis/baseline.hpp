#pragma once
// The lint-metrics baseline gate (tools/lint_check, ctest "lint_check").
//
// collect_lint_rows() runs the pipeline verifier over every shipped
// composite shape x precision and keeps the schedule-shape metrics of
// each; the committed LINT_baseline.json snapshot of those rows is
// diffed on every gated build, bench_diff-style. The metrics are pure
// functions of the plan algebra — zero measurement noise — so the
// tolerance only absorbs intentional retuning, and any drift beyond it
// means the schedule shape itself changed: a phase serialized, a chunk
// grain skewed, bank traffic concentrated, or a proof started failing.

#include <span>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace c64fft::analysis {

/// One gated row: a shipped pipeline shape at one precision.
struct LintBaselineRow {
  /// Stable key, e.g. "hierarchical-n262144-f64".
  std::string key;
  /// Metric name -> value. Gated metrics: span_cost, total_work,
  /// makespan_bound, max_load_imbalance, bank_imbalance, errors (higher
  /// is worse) and avg_parallelism (lower is worse).
  std::vector<std::pair<std::string, double>> metrics;

  const double* find(const std::string& metric) const;
};

/// The shipped verification matrix: classic (linear + hashed twiddles),
/// hierarchical 2^18 (512 x 512 at a pinned 2 MiB L2), batch
/// of 8, square and rectangular fft2d, real-input, mixed-radix and
/// Bluestein — each at f64 (16-byte) and f32 (8-byte) element width.
std::vector<LintBaselineRow> collect_lint_rows(unsigned workers = 4);

/// Rows as a stable JSON document ({"lint_version":1,"rows":[...]}),
/// doubles at full round-trip precision.
std::string lint_rows_to_json(std::span<const LintBaselineRow> rows);

/// Parse rows back from the document (the committed baseline).
std::vector<LintBaselineRow> lint_rows_from_json(const util::JsonValue& doc);

struct LintGateOptions {
  /// Allowed relative drift per gated metric. Tight by default — these
  /// numbers are deterministic (see file comment).
  double tolerance = 0.10;
  /// A baseline row or gated metric missing from the current run fails
  /// (shapes silently dropping out of the matrix hides regressions).
  bool require_all_baseline = true;
};

struct LintDelta {
  std::string key;     ///< row key
  std::string metric;  ///< gated metric name
  double baseline = 0.0;
  double current = 0.0;
  /// > 1 always means "worse" (direction folded in per metric).
  double worse_ratio = 0.0;
  bool regressed = false;
  bool missing = false;
};

std::vector<LintDelta> diff_lint_rows(std::span<const LintBaselineRow> baseline,
                                      std::span<const LintBaselineRow> current,
                                      const LintGateOptions& opts = {});

bool has_lint_regression(std::span<const LintDelta> deltas);

/// Human-readable table, regressions marked, PASS/FAIL summary line.
std::string format_lint_report(std::span<const LintDelta> deltas,
                               const LintGateOptions& opts);

}  // namespace c64fft::analysis
