// fft_lint — static plan verifier, schedule race lint, whole-pipeline
// write-coverage proof and critical-path/load cost model.
//
// Per-plan checks (classic plans): the codelet graph (acyclicity, counter
// thresholds, orphans, deadlock-freedom), a race-freedom proof from the
// footprint algebra, the DRAM bank balance of the chosen twiddle layout,
// and optionally (--cache-sets) the host cache-set conflict report.
// Whole-pipeline checks (--coverage / --critical-path, or any composite
// --plan-kind): the write-coverage / single-assignment proof and the
// critical-path & load cost model over the composite pipeline model
// (tile gathers and scatters, sub-FFT sweeps, pack/untangle passes)
// built from the same hooks the executor runs, plus the per-level
// tile-traffic report (transpose vs butterfly bytes per phase). --all
// statically verifies the full shipped matrix: every Table-I
// schedule/layout variant plus every composite kind (classic,
// hierarchical, batch, 2-D, real, mixed-radix, bluestein) at both
// precisions. --size lints an exact (possibly composite) length, which
// the auto routing sends down the factorization-driven paths.
//
// Pipeline models record the kernel dispatch table ("scalar" / "avx2")
// the runtime would execute with; the kernel check validates the id
// against the dispatch registry and host cpuid support. --isa=X forces
// the level before the models are built (clamped to hardware support,
// like C64FFT_ISA), so a lint of the forced-scalar CI lane verifies the
// same configuration that lane runs.
//
// Exit status classifies the most fundamental failed check so CI can
// triage without parsing:
//   0  every check passed (warnings allowed unless --strict-*)
//   1  errors of no classified check (unexpected)
//   2  usage / model-construction error
//   3  graph check failed (cycle, counter mismatch, deadlock)
//   4  race check failed
//   5  coverage proof failed (write-overlap, aliasing, gap, oob)
//   6  cost model failed (--strict-cost imbalance)
//   7  bank / cache-set lint failed (--strict-banks / --strict-sets)
//
//   fft_lint --logn=12 --layout=linear --schedule=fine --json
//   fft_lint --all-variants             # every shipped Table-I variant
//   fft_lint --plan-kind=hierarchical --logn=18 --coverage --critical-path
//   fft_lint --all                      # full shipped matrix, all checks

#include <algorithm>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analyzer.hpp"
#include "fft/executor.hpp"
#include "fft/kernels/dispatch.hpp"
#include "util/cli.hpp"
#include "util/cpu_features.hpp"

using namespace c64fft;

namespace {

struct VariantSpec {
  const char* name;
  analysis::Schedule schedule;
  fft::TwiddleLayout layout;
};

// The shipped plan variants of the paper's Table I: the three schedulers,
// each with the linear and the bit-reversed ("hashed") twiddle layout.
constexpr VariantSpec kShippedVariants[] = {
    {"coarse/linear", analysis::Schedule::kBarrier, fft::TwiddleLayout::kLinear},
    {"coarse/hashed", analysis::Schedule::kBarrier, fft::TwiddleLayout::kBitReversed},
    {"fine/linear", analysis::Schedule::kCounters, fft::TwiddleLayout::kLinear},
    {"fine/hashed", analysis::Schedule::kCounters, fft::TwiddleLayout::kBitReversed},
    {"guided/linear", analysis::Schedule::kCounters, fft::TwiddleLayout::kLinear},
    {"guided/hashed", analysis::Schedule::kCounters, fft::TwiddleLayout::kBitReversed},
};

void print_human(const analysis::AnalysisReport& report) {
  std::cout << report.plan_name << ": n=" << report.n;
  // Only the paper's plans carry a codelet radix.
  if (report.radix_log2 != 0) std::cout << " radix=2^" << report.radix_log2;
  std::cout << " stages=" << report.stages << " codelets=" << report.codelets;
  // Pipeline reports carry the kernel dispatch id in the layout slot.
  if (report.schedule == "pipeline" && !report.layout.empty())
    std::cout << " isa=" << report.layout;
  std::cout << '\n';
  for (const auto& check : report.checks) {
    std::cout << "  [" << check.status << "] " << check.name;
    if (!check.note.empty()) std::cout << " (" << check.note << ')';
    std::cout << '\n';
    for (const auto& d : check.diagnostics)
      std::cout << "    " << to_string(d.severity) << " [" << d.code << "] " << d.message
                << '\n';
  }
  std::cout << "  => " << report.status() << " (" << report.errors() << " error(s), "
            << report.warnings() << " warning(s))\n";
}

/// Exit code of the most fundamental failed check across all reports.
int classify_exit(const std::vector<analysis::AnalysisReport>& reports) {
  bool any_error = false;
  bool graph = false, races = false, coverage = false, cost = false,
       banks = false, kernel = false;
  for (const analysis::AnalysisReport& r : reports) {
    for (const analysis::CheckResult& c : r.checks) {
      if (c.errors() == 0) continue;
      any_error = true;
      graph |= c.name == "graph";
      races |= c.name == "races";
      coverage |= c.name == "coverage";
      cost |= c.name == "cost" || c.name == "tile-traffic";
      banks |= c.name == "banks" || c.name == "cache-sets";
      kernel |= c.name == "kernel";
    }
  }
  // A bad kernel-isa id is a model-construction error: the usage class.
  if (kernel) return 2;
  if (graph) return 3;
  if (races) return 4;
  if (coverage) return 5;
  if (cost) return 6;
  if (banks) return 7;
  return any_error ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli(
      "fft_lint — static plan verifier, schedule race lint, pipeline "
      "write-coverage proof and critical-path cost model.\n"
      "Exit codes: 0 pass, 1 unclassified error, 2 usage error, 3 graph "
      "check failed, 4 race check failed, 5 coverage proof failed, 6 cost "
      "model failed, 7 bank/cache-set lint failed (most fundamental check "
      "wins)");
  cli.add_int("logn", 12, "log2 of the FFT size to lint");
  cli.add_int("size", 0,
              "exact transform size; overrides --logn (composite sizes "
              "route to mixed-radix, primes to bluestein under auto)");
  cli.add_int("radix-log2", 6,
              "log2 of the codelet radix of the paper's plans (--plan-kind="
              "classic; paper: 6)");
  cli.add_string("layout", "linear", "twiddle layout: linear | hashed");
  cli.add_string("schedule", "fine", "scheduler: coarse | fine | guided");
  cli.add_string("plan-kind", "classic",
                 "pipeline shape: classic (the paper's phased plans) | "
                 "hierarchical | batch | fft2d | real | mixed-radix | "
                 "bluestein | auto (executor routing for the linted size: "
                 "a classic size is a batch of one)");
  cli.add_int("batch", 8,
              "transforms per batch for --plan-kind=batch (>= 1)");
  cli.add_int("rows-log2", 6,
              "log2 of the matrix rows for --plan-kind=fft2d and "
              "--seed-defect=tile-overlap");
  cli.add_int("cols-log2", 6,
              "log2 of the matrix cols for --plan-kind=fft2d and "
              "--seed-defect=tile-overlap");
  cli.add_int("workers", 4,
              "worker count the pipeline model grains its sweeps for");
  cli.add_string("isa", "auto",
                 "kernel dispatch level the pipeline models record: scalar "
                 "| avx2 | auto (clamped to hardware support)");
  cli.add_flag("coverage",
               "run the pipeline write-coverage proof (implied by composite "
               "plan kinds and --all)");
  cli.add_flag("critical-path",
               "run the pipeline critical-path/load cost model (implied by "
               "composite plan kinds and --all)");
  cli.add_flag("strict-cost", "report cost findings as errors, not warnings");
  cli.add_int("banks", 4, "DRAM banks of the modelled chip");
  cli.add_int("interleave", 64, "bank interleave in bytes");
  cli.add_int("element-bytes", 0,
              "complex element size for the byte-level lints: 16 (f64), 8 "
              "(f32), or 0 to use the model's width");
  cli.add_double("imbalance-threshold", 1.5, "flag max/mean bank ratio above this");
  cli.add_flag("strict-banks", "report bank findings as errors, not warnings");
  cli.add_flag("cache-sets",
               "also report host cache-set conflicts (stride -> set-index "
               "histogram of the data stream, per stage)");
  cli.add_int("sets", 64, "cache sets of the modelled host cache");
  cli.add_int("cache-line", 64, "cache line size in bytes");
  cli.add_double("set-coverage", 0.5,
                 "flag stages touching less than this fraction of the sets");
  cli.add_flag("strict-sets", "report cache-set findings as errors, not warnings");
  cli.add_flag("all-variants", "lint every shipped Table-I plan variant");
  cli.add_flag("all",
               "statically verify the whole shipped matrix: every Table-I "
               "variant plus every composite plan kind, both precisions");
  cli.add_string("seed-defect", "",
                 "inject a known defect to exercise the exit codes: cycle | "
                 "race | tile-overlap | skew");
  cli.add_flag("cache-stats",
               "after linting, execute each verified shape once through a "
               "private executor (both precisions, serial) and print the "
               "plan-cache residency picture: hits, misses, evictions, "
               "entries");
  cli.add_flag("json", "emit the JSON report on stdout");
  cli.add_string("json-file", "", "also write the JSON report to this path");

  try {
    if (!cli.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::cerr << "fft_lint: " << e.what() << '\n';
    return 2;
  }

  const int elem_bytes = static_cast<int>(cli.get_int("element-bytes"));
  if (elem_bytes != 0 && elem_bytes != 8 && elem_bytes != 16) {
    std::cerr << "fft_lint: --element-bytes must be 8, 16 or 0 (model width)\n";
    return 2;
  }

  const std::string& isa_name = cli.get_string("isa");
  const std::optional<util::IsaLevel> isa = util::parse_isa_name(isa_name);
  if (!isa) {
    std::cerr << "fft_lint: unknown --isa '" << isa_name
              << "' (scalar | avx2 | auto)\n";
    return 2;
  }
  const util::IsaLevel active = fft::kernels::set_kernel_isa(*isa);
  if (active != *isa)
    std::cerr << "fft_lint: --isa=" << isa_name << " not supported here, using "
              << util::to_string(active) << '\n';

  analysis::AnalysisOptions opts;
  opts.banks.banks = static_cast<unsigned>(cli.get_int("banks"));
  opts.banks.interleave_bytes = static_cast<unsigned>(cli.get_int("interleave"));
  opts.banks.element_bytes = static_cast<unsigned>(elem_bytes);
  opts.banks.imbalance_threshold = cli.get_double("imbalance-threshold");
  opts.banks.strict = cli.flag("strict-banks");
  opts.check_cache_sets = cli.flag("cache-sets");
  opts.cache_sets.sets = static_cast<unsigned>(cli.get_int("sets"));
  opts.cache_sets.line_bytes = static_cast<unsigned>(cli.get_int("cache-line"));
  opts.cache_sets.element_bytes = static_cast<unsigned>(elem_bytes);
  opts.cache_sets.min_set_coverage = cli.get_double("set-coverage");
  opts.cache_sets.strict = cli.flag("strict-sets");

  analysis::PipelineAnalysisOptions pipe_opts;
  const unsigned workers = static_cast<unsigned>(cli.get_int("workers"));
  pipe_opts.cost.workers = workers;
  pipe_opts.cost.banks = opts.banks.banks;
  pipe_opts.cost.interleave_bytes = opts.banks.interleave_bytes;
  pipe_opts.cost.strict = cli.flag("strict-cost");

  analysis::PipelineBuildOptions build;
  build.workers = workers;
  build.element_bytes = elem_bytes == 0 ? 16 : static_cast<unsigned>(elem_bytes);
  build.layout = cli.get_string("layout") == "hashed"
                     ? fft::TwiddleLayout::kBitReversed
                     : fft::TwiddleLayout::kLinear;
  pipe_opts.tile_traffic.strict = cli.flag("strict-cost");

  const std::uint64_t n =
      cli.get_int("size") != 0
          ? static_cast<std::uint64_t>(cli.get_int("size"))
          : std::uint64_t{1} << cli.get_int("logn");
  const auto radix_log2 = static_cast<unsigned>(cli.get_int("radix-log2"));

  std::vector<analysis::AnalysisReport> reports;
  try {
    const std::string& defect = cli.get_string("seed-defect");
    if (!defect.empty()) {
      // Each seed builds a correct model, breaks it the way a real bug
      // would, and lets the normal checks catch it — the CLI-level twin
      // of the seeded-defect unit tests, pinning the exit-code contract.
      if (defect == "cycle") {
        analysis::PlanModel m = analysis::build_model(
            fft::FftPlan(n, radix_log2), build.layout,
            analysis::Schedule::kCounters, "seeded-cycle");
        m.graph.add_edge(m.codelets.back().key, m.codelets.front().key);
        reports.push_back(analysis::analyze(m, opts));
      } else if (defect == "race") {
        analysis::PlanModel m = analysis::build_model(
            fft::FftPlan(n, radix_log2), build.layout,
            analysis::Schedule::kCounters, "seeded-race");
        // Task 1 of stage 0 also writes task 0's first element: a
        // write-write conflict between unordered siblings.
        m.codelets[1].writes.push_back(m.codelets[0].writes.front());
        reports.push_back(analysis::analyze(m, opts));
      } else if (defect == "tile-overlap") {
        analysis::PipelineModel m = analysis::build_fft2d_pipeline(
            std::uint64_t{1} << cli.get_int("rows-log2"),
            std::uint64_t{1} << cli.get_int("cols-log2"), build,
            "seeded-overlap");
        // In the tile pipeline's phase B, the second column block
        // re-writes the first block's first element.
        analysis::PhaseModel& phase = m.phases.back();
        phase.tasks.at(1).writes.push_back(phase.tasks.at(0).writes.front());
        reports.push_back(analysis::analyze_pipeline(m, pipe_opts));
      } else if (defect == "skew") {
        analysis::PipelineModel m = analysis::build_classic_pipeline(
            fft::FftPlan(n, radix_log2), build, "seeded-skew");
        // One codelet of the last stage suddenly streams its footprint
        // 64x: the skewed-chunk signature the cost model flags.
        m.phases.back().tasks.front().passes *= 64;
        reports.push_back(analysis::analyze_pipeline(m, pipe_opts));
      } else {
        std::cerr << "fft_lint: unknown --seed-defect '" << defect << "'\n";
        return 2;
      }
    } else if (cli.flag("all")) {
      for (unsigned eb : {16u, 8u}) {
        analysis::AnalysisOptions popts = opts;
        popts.banks.element_bytes = eb;
        popts.cache_sets.element_bytes = eb;
        analysis::PipelineBuildOptions b = build;
        b.element_bytes = eb;
        const std::string prec = eb == 16 ? " f64" : " f32";
        const fft::FftPlan plan(n, radix_log2);
        for (const VariantSpec& v : kShippedVariants)
          reports.push_back(analysis::analyze_plan(plan, v.layout, v.schedule,
                                                   popts, v.name + prec));
        b.layout = fft::TwiddleLayout::kLinear;
        reports.push_back(analysis::analyze_pipeline(
            analysis::build_classic_pipeline(plan, b, "classic" + prec),
            pipe_opts));
        b.layout = fft::TwiddleLayout::kBitReversed;
        reports.push_back(analysis::analyze_pipeline(
            analysis::build_classic_pipeline(plan, b, "classic/hashed" + prec),
            pipe_opts));
        b.layout = fft::TwiddleLayout::kLinear;
        reports.push_back(analysis::analyze_pipeline(
            analysis::build_hierarchical_pipeline(std::uint64_t{1} << 18, b,
                                                  "hierarchical" + prec),
            pipe_opts));
        reports.push_back(analysis::analyze_pipeline(
            analysis::build_batch_pipeline(256, 8, b, "batch8" + prec),
            pipe_opts));
        reports.push_back(analysis::analyze_pipeline(
            analysis::build_fft2d_pipeline(64, 64, b, "fft2d-64x64" + prec),
            pipe_opts));
        reports.push_back(analysis::analyze_pipeline(
            analysis::build_fft2d_pipeline(32, 64, b, "fft2d-32x64" + prec),
            pipe_opts));
        reports.push_back(analysis::analyze_pipeline(
            analysis::build_real_fft_pipeline(4096, b, "real" + prec),
            pipe_opts));
        // The factorization-driven arbitrary-N paths: a 7-smooth
        // composite through the mixed-radix pipeline and a prime through
        // the Bluestein chirp-z hull (inner 256-point classic conv).
        reports.push_back(analysis::analyze_pipeline(
            analysis::build_mixed_radix_pipeline(1000, b,
                                                 "mixed-radix-1000" + prec),
            pipe_opts));
        reports.push_back(analysis::analyze_pipeline(
            analysis::build_bluestein_pipeline(101, b, "bluestein-101" + prec),
            pipe_opts));
      }
    } else {
      std::string kind = cli.get_string("plan-kind");
      std::uint64_t batch = static_cast<std::uint64_t>(cli.get_int("batch"));
      if (kind == "auto") {
        // A classic size runs the executor's serial body: one
        // whole-transform task, the batch model at B = 1.
        switch (fft::routed_plan_kind(n)) {
          case fft::PlanKind::kHierarchical: kind = "hierarchical"; break;
          case fft::PlanKind::kMixedRadix: kind = "mixed-radix"; break;
          case fft::PlanKind::kBluestein: kind = "bluestein"; break;
          default: kind = "batch"; batch = 1; break;
        }
      }
      const bool want_pipeline = cli.flag("coverage") || cli.flag("critical-path");
      if (cli.flag("coverage") != cli.flag("critical-path")) {
        pipe_opts.check_coverage = cli.flag("coverage");
        pipe_opts.check_cost = cli.flag("critical-path");
      }
      if (kind == "classic") {
        std::vector<VariantSpec> variants;
        if (cli.flag("all-variants")) {
          variants.assign(std::begin(kShippedVariants), std::end(kShippedVariants));
        } else {
          const std::string& layout = cli.get_string("layout");
          const std::string& schedule = cli.get_string("schedule");
          if (layout != "linear" && layout != "hashed") {
            std::cerr << "fft_lint: unknown --layout '" << layout << "'\n";
            return 2;
          }
          if (schedule != "coarse" && schedule != "fine" && schedule != "guided") {
            std::cerr << "fft_lint: unknown --schedule '" << schedule << "'\n";
            return 2;
          }
          variants.push_back(
              {"", schedule == "coarse" ? analysis::Schedule::kBarrier
                                        : analysis::Schedule::kCounters,
               layout == "hashed" ? fft::TwiddleLayout::kBitReversed
                                  : fft::TwiddleLayout::kLinear});
        }
        const fft::FftPlan plan(n, radix_log2);
        for (const VariantSpec& v : variants) {
          const std::string name =
              v.name && *v.name ? v.name
                                : cli.get_string("schedule") + "/" +
                                      cli.get_string("layout");
          reports.push_back(
              analysis::analyze_plan(plan, v.layout, v.schedule, opts, name));
        }
        if (want_pipeline)
          reports.push_back(analysis::analyze_pipeline(
              analysis::build_classic_pipeline(plan, build), pipe_opts));
      } else if (kind == "hierarchical") {
        reports.push_back(analysis::analyze_pipeline(
            analysis::build_hierarchical_pipeline(n, build), pipe_opts));
      } else if (kind == "batch") {
        reports.push_back(analysis::analyze_pipeline(
            analysis::build_batch_pipeline(n, batch, build), pipe_opts));
      } else if (kind == "fft2d") {
        reports.push_back(analysis::analyze_pipeline(
            analysis::build_fft2d_pipeline(
                std::uint64_t{1} << cli.get_int("rows-log2"),
                std::uint64_t{1} << cli.get_int("cols-log2"), build),
            pipe_opts));
      } else if (kind == "real") {
        reports.push_back(analysis::analyze_pipeline(
            analysis::build_real_fft_pipeline(n, build), pipe_opts));
      } else if (kind == "mixed-radix") {
        reports.push_back(analysis::analyze_pipeline(
            analysis::build_mixed_radix_pipeline(n, build), pipe_opts));
      } else if (kind == "bluestein") {
        reports.push_back(analysis::analyze_pipeline(
            analysis::build_bluestein_pipeline(n, build), pipe_opts));
      } else {
        std::cerr << "fft_lint: unknown --plan-kind '" << kind << "'\n";
        return 2;
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "fft_lint: " << e.what() << '\n';
    return 2;
  }

  std::string cache_stats_line;
  if (cli.flag("cache-stats")) {
    // Tie the static picture to the runtime one: run every linted shape
    // through a private executor (serial path — the cache behaves
    // identically) at both precisions, then report what the plan cache
    // retained. Distinct precisions are distinct entries by design, so
    // `entries` should read 2x the unique sizes unless the LRU had to
    // evict.
    try {
      fft::FftExecutor exec;
      fft::HostFftOptions hopts;
      hopts.workers = 1;
      std::vector<std::uint64_t> shapes;
      for (const analysis::AnalysisReport& r : reports) shapes.push_back(r.n);
      std::sort(shapes.begin(), shapes.end());
      shapes.erase(std::unique(shapes.begin(), shapes.end()), shapes.end());
      std::vector<fft::cplx> buf64;
      std::vector<fft::cplx32> buf32;
      for (const std::uint64_t shape_n : shapes) {
        buf64.assign(shape_n, fft::cplx{});
        exec.forward(std::span<fft::cplx>(buf64), hopts);
        buf32.assign(shape_n, fft::cplx32{});
        exec.forward(std::span<fft::cplx32>(buf32), hopts);
      }
      const fft::ExecutorStats st = exec.stats();
      std::ostringstream line;
      line << "plan cache: hits=" << st.cache.hits
           << " misses=" << st.cache.misses
           << " evictions=" << st.cache.evictions
           << " entries=" << st.cache.entries << " (" << shapes.size()
           << " shapes x 2 precisions)\n";
      cache_stats_line = line.str();
    } catch (const std::exception& e) {
      std::cerr << "fft_lint: --cache-stats execution failed: " << e.what()
                << '\n';
      return 2;
    }
  }

  std::string json_all = "[";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (cli.flag("json") || !cli.get_string("json-file").empty()) {
      if (i) json_all += ',';
      json_all += reports[i].to_json();
    }
    if (!cli.flag("json")) print_human(reports[i]);
  }
  json_all += ']';

  // After the reports in human mode; on stderr in JSON mode so stdout
  // stays a single parseable document.
  if (!cache_stats_line.empty())
    (cli.flag("json") ? std::cerr : std::cout) << cache_stats_line;
  if (cli.flag("json")) std::cout << json_all << '\n';
  if (!cli.get_string("json-file").empty()) {
    std::ofstream out(cli.get_string("json-file"));
    if (!out) {
      std::cerr << "fft_lint: cannot write " << cli.get_string("json-file") << '\n';
      return 2;
    }
    out << json_all << '\n';
  }
  return classify_exit(reports);
}
