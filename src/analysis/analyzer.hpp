#pragma once
// fft_lint's engine: runs the graph verifier, the static race detector
// and the bank-balance lint over a PlanModel and folds the results into
// one AnalysisReport. Also the one-call entry point for linting a shipped
// plan variant straight from (N, radix, layout, schedule).

#include "analysis/bank_lint.hpp"
#include "analysis/cost_model.hpp"
#include "analysis/coverage.hpp"
#include "analysis/model.hpp"
#include "analysis/pipeline.hpp"
#include "analysis/race.hpp"
#include "analysis/report.hpp"
#include "analysis/tile_traffic.hpp"
#include "analysis/verifier.hpp"
#include "util/cpu_features.hpp"

namespace c64fft::analysis {

struct AnalysisOptions {
  bool check_graph = true;
  bool check_races = true;
  bool check_banks = true;
  /// Opt-in report mode (fft_lint --cache-sets): host-cache set-conflict
  /// histogram of the data stream, stage by stage.
  bool check_cache_sets = false;
  VerifierOptions verifier;
  RaceOptions races;
  BankLintOptions banks;
  CacheSetLintOptions cache_sets;
};

/// Run every enabled check. The race check is skipped (not failed) when
/// the verifier found a cycle, since reachability is undefined then.
AnalysisReport analyze(const PlanModel& model, const AnalysisOptions& opts = {});

/// Build the model of a shipped plan variant and analyze it.
AnalysisReport analyze_plan(const fft::FftPlan& plan, fft::TwiddleLayout layout,
                            Schedule schedule, const AnalysisOptions& opts = {},
                            std::string name = {});

struct PipelineAnalysisOptions {
  bool check_coverage = true;
  bool check_cost = true;
  /// Per-level tile-traffic report (bytes per phase, transpose vs
  /// butterfly split, per-phase skew) — a report-style check like the
  /// bank lint, warnings unless tile_traffic.strict.
  bool check_tile_traffic = true;
  /// Validate PipelineModel::kernel_isa against the kernel dispatch
  /// registry and host cpuid support. Cheap, so always on; a failure is
  /// a model-construction error (fft_lint exit 2).
  bool check_kernel = true;
  CoverageOptions coverage;
  CostModelOptions cost;
  TileTrafficOptions tile_traffic;
};

/// The kernel-dispatch check on its own: the model's kernel_isa id must
/// name a registered dispatch table ("scalar"/"avx2") whose ISA level is
/// at most `host_best`, the best level the host executes
/// (analyze_pipeline passes util::best_supported_isa()). Codes:
/// "unknown-kernel-isa", "unsupported-kernel-isa".
CheckResult check_kernel_dispatch(const PipelineModel& model,
                                  util::IsaLevel host_best);

/// Run the whole-pipeline checks (write-coverage proof, critical-path /
/// load cost model) over a composite-plan model built by the
/// build_*_pipeline functions. Reported with schedule "pipeline"; the
/// `stages` field carries the phase count and `codelets` the task count.
AnalysisReport analyze_pipeline(const PipelineModel& model,
                                const PipelineAnalysisOptions& opts = {});

}  // namespace c64fft::analysis
