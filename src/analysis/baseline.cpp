#include "analysis/baseline.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <sstream>

#include "analysis/analyzer.hpp"

namespace c64fft::analysis {

namespace {

/// Gated metric -> direction. Everything else in the report (per-phase
/// profile, per-bank bytes) is informational: it feeds debugging, not the
/// gate, so adding a phase to a builder does not invalidate every
/// baseline row.
struct GatedMetric {
  const char* name;
  bool higher_is_worse;
};
constexpr GatedMetric kGated[] = {
    {"span_cost", true},          {"total_work", true},
    {"makespan_bound", true},     {"max_load_imbalance", true},
    {"bank_imbalance", true},     {"errors", true},
    {"avg_parallelism", false},
};

std::string fmt_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void append_row(std::vector<LintBaselineRow>& rows, const PipelineModel& model,
                std::string key, unsigned workers) {
  PipelineAnalysisOptions opts;
  opts.cost.workers = workers;
  const AnalysisReport report = analyze_pipeline(model, opts);
  LintBaselineRow row;
  row.key = std::move(key);
  for (const CheckResult& check : report.checks) {
    if (check.name != "cost") continue;
    for (const auto& [name, value] : check.metrics)
      row.metrics.emplace_back(name, value);
  }
  row.metrics.emplace_back("errors", static_cast<double>(report.errors()));
  rows.push_back(std::move(row));
}

}  // namespace

const double* LintBaselineRow::find(const std::string& metric) const {
  for (const auto& [name, value] : metrics)
    if (name == metric) return &value;
  return nullptr;
}

std::vector<LintBaselineRow> collect_lint_rows(unsigned workers) {
  std::vector<LintBaselineRow> rows;
  struct Precision {
    const char* tag;
    unsigned element_bytes;
  };
  constexpr Precision kPrecisions[] = {{"f64", 16}, {"f32", 8}};
  for (const Precision& prec : kPrecisions) {
    PipelineBuildOptions opts;
    opts.workers = workers;
    opts.element_bytes = prec.element_bytes;
    const std::string suffix = std::string{"-"} + prec.tag;

    const fft::FftPlan classic(4096, 6);
    opts.layout = fft::TwiddleLayout::kLinear;
    append_row(rows, build_classic_pipeline(classic, opts),
               "classic-linear-n4096-r6" + suffix, workers);
    opts.layout = fft::TwiddleLayout::kBitReversed;
    append_row(rows, build_classic_pipeline(classic, opts),
               "classic-hashed-n4096-r6" + suffix, workers);
    opts.layout = fft::TwiddleLayout::kLinear;

    // The hierarchical row pins the L2: the builder's default derives the
    // block grain from the host L2 via cache_info(), and baseline rows
    // must stay pure plan algebra — identical on every machine that runs
    // the gate. The grain is the executor's policy at a 2 MiB L2 over the
    // balanced 512 x 512 split of 2^18.
    PipelineBuildOptions hier = opts;
    hier.l2_bytes = std::uint64_t{2} << 20;
    append_row(rows, build_hierarchical_pipeline(std::uint64_t{1} << 18, hier),
               "hierarchical-n262144" + suffix, workers);
    append_row(rows, build_batch_pipeline(256, 8, opts),
               "batch8-n256" + suffix, workers);
    append_row(rows, build_fft2d_pipeline(64, 64, opts),
               "fft2d-64x64" + suffix, workers);
    append_row(rows, build_fft2d_pipeline(32, 64, opts),
               "fft2d-32x64" + suffix, workers);
    append_row(rows, build_real_fft_pipeline(4096, opts),
               "real-n4096" + suffix, workers);
    // Arbitrary-N rows: one 7-smooth composite through the mixed-radix
    // hull and one prime through the Bluestein chirp-z hull. Both are
    // pure plan algebra (no cache_info dependence), so they gate like
    // the classic rows.
    append_row(rows, build_mixed_radix_pipeline(1000, opts),
               "mixed-radix-n1000" + suffix, workers);
    append_row(rows, build_bluestein_pipeline(101, opts),
               "bluestein-n101" + suffix, workers);
  }
  return rows;
}

std::string lint_rows_to_json(std::span<const LintBaselineRow> rows) {
  std::ostringstream os;
  os << "{\n  \"lint_version\": 1,\n  \"rows\": [";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    os << (i ? ",\n" : "\n") << "    {\n      \"key\": \"" << rows[i].key
       << "\",\n      \"metrics\": {";
    const auto& metrics = rows[i].metrics;
    for (std::size_t m = 0; m < metrics.size(); ++m)
      os << (m ? ",\n" : "\n") << "        \"" << metrics[m].first
         << "\": " << fmt_double(metrics[m].second);
    os << "\n      }\n    }";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

std::vector<LintBaselineRow> lint_rows_from_json(const util::JsonValue& doc) {
  std::vector<LintBaselineRow> rows;
  for (const util::JsonValue& item : doc.at("rows").items()) {
    LintBaselineRow row;
    row.key = item.at("key").as_string();
    for (const auto& [name, value] : item.at("metrics").members())
      row.metrics.emplace_back(name, value.as_number());
    rows.push_back(std::move(row));
  }
  return rows;
}

std::vector<LintDelta> diff_lint_rows(std::span<const LintBaselineRow> baseline,
                                      std::span<const LintBaselineRow> current,
                                      const LintGateOptions& opts) {
  std::vector<LintDelta> deltas;
  for (const LintBaselineRow& base_row : baseline) {
    const LintBaselineRow* cur_row = nullptr;
    for (const LintBaselineRow& c : current)
      if (c.key == base_row.key) {
        cur_row = &c;
        break;
      }
    for (const GatedMetric& gm : kGated) {
      const double* base = base_row.find(gm.name);
      if (!base) continue;  // older baseline without this metric
      LintDelta d;
      d.key = base_row.key;
      d.metric = gm.name;
      d.baseline = *base;
      const double* cur = cur_row ? cur_row->find(gm.name) : nullptr;
      if (!cur) {
        d.missing = true;
        d.regressed = opts.require_all_baseline;
        deltas.push_back(std::move(d));
        continue;
      }
      d.current = *cur;
      // Fold direction so > 1 is always worse; a zero denominator means
      // "was perfect": any nonzero drift regresses, equality passes.
      const double num = gm.higher_is_worse ? d.current : d.baseline;
      const double den = gm.higher_is_worse ? d.baseline : d.current;
      if (den == 0.0)
        d.worse_ratio = num == 0.0 ? 1.0 : std::numeric_limits<double>::infinity();
      else
        d.worse_ratio = num / den;
      d.regressed = d.worse_ratio > 1.0 + opts.tolerance;
      deltas.push_back(std::move(d));
    }
  }
  return deltas;
}

bool has_lint_regression(std::span<const LintDelta> deltas) {
  for (const LintDelta& d : deltas)
    if (d.regressed) return true;
  return false;
}

std::string format_lint_report(std::span<const LintDelta> deltas,
                               const LintGateOptions& opts) {
  std::ostringstream os;
  std::size_t regressed = 0, missing = 0;
  for (const LintDelta& d : deltas) {
    os << (d.regressed ? "FAIL " : "  ok ") << d.key << " " << d.metric << ": ";
    if (d.missing) {
      os << "missing from current run";
      ++missing;
    } else {
      os << d.baseline << " -> " << d.current << " (worse-ratio "
         << d.worse_ratio << ")";
    }
    if (d.regressed) ++regressed;
    os << "\n";
  }
  os << (regressed ? "FAIL: " : "PASS: ") << deltas.size() << " gated metrics, "
     << regressed << " regressed beyond " << opts.tolerance * 100.0 << "%, "
     << missing << " missing\n";
  return os.str();
}

}  // namespace c64fft::analysis
