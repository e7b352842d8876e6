#include "analysis/analyzer.hpp"

#include "fft/kernels/dispatch.hpp"
#include "util/cpu_features.hpp"

namespace c64fft::analysis {

CheckResult check_kernel_dispatch(const PipelineModel& model,
                                  util::IsaLevel host_best) {
  CheckResult result;
  result.name = "kernel";
  if (model.kernel_isa.empty()) {
    // Hand-built models may not record a dispatch id; that is not a
    // defect, there is just nothing to verify.
    result.status = "skipped";
    result.note = "model records no kernel isa";
    return result;
  }
  // The registry is the dispatch tables themselves: an id is known iff
  // some level's table carries it, so this check can never drift from
  // the kernels the runtime actually ships.
  bool known = false;
  util::IsaLevel level = util::IsaLevel::kScalar;
  for (const util::IsaLevel l :
       {util::IsaLevel::kScalar, util::IsaLevel::kAvx2}) {
    if (model.kernel_isa == fft::kernels::kernels_for<double>(l).id) {
      known = true;
      level = l;
      break;
    }
  }
  if (!known) {
    result.add(Severity::kError, "unknown-kernel-isa",
               "kernel isa id '" + model.kernel_isa +
                   "' names no registered dispatch table");
  } else if (static_cast<int>(level) > static_cast<int>(host_best)) {
    result.add(Severity::kError, "unsupported-kernel-isa",
               "kernel isa '" + model.kernel_isa +
                   "' is not executable on this host (best supported: " +
                   util::to_string(host_best) + ")");
  } else {
    result.note = "dispatch table '" + model.kernel_isa + "'";
    result.metrics["isa_level"] = static_cast<double>(level);
  }
  result.finalize();
  return result;
}

AnalysisReport analyze(const PlanModel& model, const AnalysisOptions& opts) {
  AnalysisReport report;
  report.plan_name = model.name;
  report.n = model.n;
  report.radix_log2 = model.radix_log2;
  report.stages = model.stages;
  report.codelets = model.codelets.size();
  report.schedule = to_string(model.schedule);
  report.layout = model.layout == fft::TwiddleLayout::kLinear ? "linear" : "hashed";

  bool cyclic = false;
  if (opts.check_graph) {
    CheckResult graph = verify_graph(model, opts.verifier);
    for (const Diagnostic& d : graph.diagnostics) cyclic |= d.code == "cycle";
    report.checks.push_back(std::move(graph));
  }
  if (opts.check_races) {
    if (cyclic && model.schedule == Schedule::kCounters) {
      CheckResult skipped;
      skipped.name = "races";
      skipped.status = "skipped";
      skipped.note = "dependency graph is cyclic; fix the graph check first";
      report.checks.push_back(std::move(skipped));
    } else {
      report.checks.push_back(detect_races(model, opts.races));
    }
  }
  if (opts.check_banks) report.checks.push_back(lint_banks(model, opts.banks));
  if (opts.check_cache_sets)
    report.checks.push_back(lint_cache_sets(model, opts.cache_sets));
  return report;
}

AnalysisReport analyze_plan(const fft::FftPlan& plan, fft::TwiddleLayout layout,
                            Schedule schedule, const AnalysisOptions& opts,
                            std::string name) {
  return analyze(build_model(plan, layout, schedule, std::move(name)), opts);
}

AnalysisReport analyze_pipeline(const PipelineModel& model,
                                const PipelineAnalysisOptions& opts) {
  AnalysisReport report;
  report.plan_name = model.name;
  report.n = model.n;
  report.radix_log2 = model.radix_log2;
  report.stages = static_cast<std::uint32_t>(model.phases.size());
  report.codelets = model.total_tasks();
  report.schedule = "pipeline";
  report.layout = model.kernel_isa;
  if (opts.check_kernel)
    report.checks.push_back(
        check_kernel_dispatch(model, util::best_supported_isa()));
  if (opts.check_coverage)
    report.checks.push_back(check_coverage(model, opts.coverage));
  if (opts.check_cost) {
    CostModelOptions cost = opts.cost;
    report.checks.push_back(model_costs(model, cost));
  }
  if (opts.check_tile_traffic)
    report.checks.push_back(report_tile_traffic(model, opts.tile_traffic));
  return report;
}

}  // namespace c64fft::analysis
