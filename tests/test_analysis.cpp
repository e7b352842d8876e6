// The static analyzer must (a) pass every shipped plan variant clean of
// errors, flagging only the linear twiddle layout's bank-0 hotspot, and
// (b) catch each class of seeded defect: a dependency cycle, a wrong
// counter threshold, overlapping unordered writes, an orphaned codelet,
// and a bank-0-heavy twiddle stride.

#include "analysis/analyzer.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "analysis/baseline.hpp"
#include "analysis/model.hpp"
#include "fft/executor.hpp"
#include "fft/kernels/dispatch.hpp"
#include "fft/mixed_radix.hpp"
#include "paper/fft_plan.hpp"
#include "util/cpu_features.hpp"
#include "util/json.hpp"

namespace c64fft::analysis {
namespace {

using fft::FftPlan;
using fft::TwiddleLayout;

bool has_code(const AnalysisReport& report, const std::string& check,
              const std::string& code) {
  for (const auto& c : report.checks) {
    if (c.name != check) continue;
    for (const auto& d : c.diagnostics)
      if (d.code == code) return true;
  }
  return false;
}

const CheckResult& check_of(const AnalysisReport& report, const std::string& name) {
  for (const auto& c : report.checks)
    if (c.name == name) return c;
  throw std::logic_error("missing check " + name);
}

/// The named phase of a pipeline model (throws when absent).
PhaseModel& phase_named(PipelineModel& m, const std::string& name) {
  for (PhaseModel& p : m.phases)
    if (p.name == name) return p;
  throw std::logic_error("missing phase " + name);
}

/// A pipeline with an out-of-place tile transpose phase ("transpose",
/// data -> scratch, full coverage of scratch): the rectangular fft2d.
PipelineModel transpose_pipeline() { return build_fft2d_pipeline(32, 64); }

PlanModel clean_model(std::uint64_t n = 4096, unsigned r = 6,
                      TwiddleLayout layout = TwiddleLayout::kLinear,
                      Schedule schedule = Schedule::kCounters) {
  return build_model(FftPlan(n, r), layout, schedule);
}

// ---- Shipped variants ----

TEST(Analyzer, AllShippedVariantsAreErrorFree) {
  for (const std::uint64_t n : {std::uint64_t{256}, std::uint64_t{4096}}) {
    for (const unsigned r : {3u, 6u}) {
      if ((std::uint64_t{1} << r) > n) continue;
      for (const auto layout : {TwiddleLayout::kLinear, TwiddleLayout::kBitReversed}) {
        for (const auto schedule : {Schedule::kBarrier, Schedule::kCounters}) {
          const auto report = analyze_plan(FftPlan(n, r), layout, schedule);
          EXPECT_EQ(report.errors(), 0u)
              << "n=" << n << " r=" << r << " " << report.to_json();
          EXPECT_TRUE(report.passed());
        }
      }
    }
  }
}

TEST(Analyzer, PartialLastStagePlanIsErrorFree) {
  // 2^10 with radix 2^6: the second stage applies only 4 levels — the
  // partial-stage group algebra must still verify clean.
  const auto report = analyze_plan(FftPlan(1024, 6), TwiddleLayout::kLinear,
                                   Schedule::kCounters);
  EXPECT_EQ(report.errors(), 0u) << report.to_json();
}

TEST(Analyzer, LinearLayoutFlaggedBank0HashedClean) {
  const FftPlan plan(4096, 6);
  const auto linear =
      analyze_plan(plan, TwiddleLayout::kLinear, Schedule::kCounters);
  ASSERT_TRUE(has_code(linear, "banks", "bank-imbalance")) << linear.to_json();
  EXPECT_TRUE(has_code(linear, "banks", "twiddle-single-bank"));
  EXPECT_EQ(check_of(linear, "banks").metrics.at("hottest_bank"), 0.0);
  EXPECT_GT(check_of(linear, "banks").metrics.at("twiddle_imbalance"), 2.0);
  // Findings are warnings, not errors: shipped linear variants still pass.
  EXPECT_EQ(linear.errors(), 0u);
  EXPECT_EQ(linear.status(), "warn");

  const auto hashed =
      analyze_plan(plan, TwiddleLayout::kBitReversed, Schedule::kCounters);
  EXPECT_FALSE(has_code(hashed, "banks", "bank-imbalance")) << hashed.to_json();
  EXPECT_FALSE(has_code(hashed, "banks", "twiddle-single-bank"));
  EXPECT_EQ(hashed.status(), "pass");
  EXPECT_LT(check_of(hashed, "banks").metrics.at("twiddle_imbalance"), 1.5);
}

TEST(Analyzer, CacheSetLintFlagsStridedStagesOnly) {
  // Opt-in report mode: absent by default, present when requested.
  const FftPlan plan(4096, 6);
  const auto off = analyze_plan(plan, TwiddleLayout::kLinear, Schedule::kCounters);
  EXPECT_THROW(check_of(off, "cache-sets"), std::logic_error);

  AnalysisOptions opts;
  opts.check_cache_sets = true;
  const auto report =
      analyze_plan(plan, TwiddleLayout::kLinear, Schedule::kCounters, opts);
  const CheckResult& cs = check_of(report, "cache-sets");
  // Stage 0 walks contiguous chains -> every set in the footprint's range;
  // stage 1 strides by R = 64 elements = 16 lines -> its 64-line codelet
  // footprint folds onto 64/gcd(64,16) = 4 of the 64 sets.
  ASSERT_TRUE(has_code(report, "cache-sets", "cache-set-conflict"))
      << report.to_json();
  EXPECT_EQ(cs.metrics.at("stage0_chain_sets"), 16.0);
  EXPECT_EQ(cs.metrics.at("stage1_chain_sets"), 4.0);
  EXPECT_EQ(cs.metrics.at("stage1_stride"), 64.0);
  // Warnings by default (a performance hazard, not a correctness bug).
  EXPECT_EQ(report.errors(), 0u);

  AnalysisOptions strict = opts;
  strict.cache_sets.strict = true;
  EXPECT_GT(analyze_plan(plan, TwiddleLayout::kLinear, Schedule::kCounters, strict)
                .errors(),
            0u);
}

TEST(Analyzer, CacheSetLintCleanOnTinyPlan) {
  // A cache-resident plan (N = 256: 64 lines total) has nothing to flag —
  // every stage's footprint covers the whole (tiny) index range it uses.
  AnalysisOptions opts;
  opts.check_cache_sets = true;
  const auto report = analyze_plan(FftPlan(256, 6), TwiddleLayout::kLinear,
                                   Schedule::kCounters, opts);
  EXPECT_FALSE(has_code(report, "cache-sets", "cache-set-conflict"))
      << report.to_json();
}

TEST(Analyzer, StrictBanksPromotesToError) {
  AnalysisOptions opts;
  opts.banks.strict = true;
  const auto report =
      analyze_plan(FftPlan(4096, 6), TwiddleLayout::kLinear, Schedule::kCounters, opts);
  EXPECT_GT(report.errors(), 0u);
  EXPECT_FALSE(report.passed());
}

// ---- Seeded defects ----

TEST(Analyzer, SeededCycleIsDetected) {
  PlanModel m = clean_model();
  // Close a loop: some stage-1 consumer also "produces for" its parent.
  m.graph.add_edge({1, 0}, {0, 0});
  const auto report = analyze(m);
  EXPECT_TRUE(has_code(report, "graph", "cycle")) << report.to_json();
  EXPECT_FALSE(report.passed());
  // Reachability is undefined on a cyclic graph: races must be skipped,
  // not silently passed.
  EXPECT_EQ(check_of(report, "races").status, "skipped");
}

TEST(Analyzer, SeededThresholdTooHighDeadlocks) {
  PlanModel m = clean_model();
  m.groups.front().threshold += 1;  // one counter can never fill
  const auto report = analyze(m);
  EXPECT_TRUE(has_code(report, "graph", "threshold-mismatch")) << report.to_json();
  EXPECT_TRUE(has_code(report, "graph", "deadlock"));
  EXPECT_FALSE(report.passed());
}

TEST(Analyzer, SeededThresholdTooLowOverArrives) {
  PlanModel m = clean_model();
  m.groups.front().threshold -= 1;  // fires before the last parent: the
                                    // runtime counter would over-satisfy
  const auto report = analyze(m);
  EXPECT_TRUE(has_code(report, "graph", "threshold-mismatch")) << report.to_json();
  EXPECT_TRUE(has_code(report, "graph", "over-arrival"));
  EXPECT_FALSE(report.passed());
}

TEST(Analyzer, SeededOverlappingUnorderedWritesRace) {
  PlanModel m = clean_model();
  // Two stage-0 codelets are unordered by construction; make task 1
  // write into task 0's footprint.
  ASSERT_EQ(m.codelets[0].key.stage, 0u);
  ASSERT_EQ(m.codelets[1].key.stage, 0u);
  m.codelets[1].writes = m.codelets[0].writes;
  const auto report = analyze(m);
  EXPECT_TRUE(has_code(report, "races", "race-ww")) << report.to_json();
  EXPECT_FALSE(report.passed());
  EXPECT_GE(check_of(report, "races").metrics.at("racing_pairs"), 1.0);
}

TEST(Analyzer, SeededMissingEdgeReadWriteRace) {
  PlanModel m = clean_model();
  // Rebuild the graph with one producer->consumer edge dropped: the
  // consumer now reads elements its missing parent writes, unordered.
  codelet::CodeletGraph pruned;
  bool dropped = false;
  for (const CodeletModel& c : m.codelets) pruned.add_node(c.key);
  for (const GroupModel& g : m.groups)
    for (std::uint64_t p : g.producers)
      for (std::uint64_t mem : g.members) {
        if (!dropped && g.stage == 1 && p == 0 && mem == 0) {
          dropped = true;
          continue;
        }
        pruned.add_edge({g.stage - 1, p}, {g.stage, mem});
      }
  ASSERT_TRUE(dropped);
  m.graph = pruned;
  const auto report = analyze(m);
  EXPECT_TRUE(has_code(report, "races", "race-rw") ||
              has_code(report, "races", "race-ww"))
      << report.to_json();
  // The verifier independently sees the member's parent set shrink.
  EXPECT_TRUE(has_code(report, "graph", "parent-set-mismatch"));
  EXPECT_FALSE(report.passed());
}

TEST(Analyzer, SeededOrphanCodeletIsDetected) {
  PlanModel m = clean_model();
  // A codelet of stage >= 1 that no sibling group releases can never fire.
  CodeletModel extra;
  extra.key = {1, m.codelets.back().key.index + 1};
  extra.reads = {0};
  extra.writes = {0};
  m.graph.add_node(extra.key);
  m.codelets.push_back(extra);
  const auto report = analyze(m);
  EXPECT_TRUE(has_code(report, "graph", "orphan")) << report.to_json();
  EXPECT_TRUE(has_code(report, "graph", "deadlock"));
  EXPECT_FALSE(report.passed());
}

TEST(Analyzer, SeededBank0HeavyTwiddleStrideIsFlagged) {
  PlanModel m = clean_model(4096, 6, TwiddleLayout::kBitReversed);
  {
    // Sanity: the hashed layout starts clean.
    const auto before = analyze(m);
    EXPECT_FALSE(has_code(before, "banks", "bank-imbalance"));
  }
  // Force every codelet's twiddle stream onto slots 16 elements apart:
  // 16 * 16 B = 256 B = interleave * banks, so every load lands on the
  // bank of the table base — the Fig. 1 hotspot in its purest form.
  for (CodeletModel& c : m.codelets)
    for (std::size_t i = 0; i < c.twiddle_slots.size(); ++i)
      c.twiddle_slots[i] = 16 * static_cast<std::uint64_t>(i);
  const auto report = analyze(m);
  EXPECT_TRUE(has_code(report, "banks", "bank-imbalance")) << report.to_json();
  EXPECT_TRUE(has_code(report, "banks", "twiddle-single-bank"));
  EXPECT_EQ(check_of(report, "banks").metrics.at("hottest_bank"), 0.0);
}

TEST(Analyzer, ElementBytesChangesBankVerdict) {
  // The same slot set lints clean at 16 B elements but bank-0/1-heavy at
  // 8 B: element size is a genuine input of the verdict, not a scale
  // factor. Give every codelet the bounded twiddle stream {0,2,...,14}.
  PlanModel m = clean_model(4096, 6, TwiddleLayout::kBitReversed);
  for (CodeletModel& c : m.codelets) {
    c.twiddle_slots.clear();
    for (std::uint64_t s = 0; s < 16; s += 2) c.twiddle_slots.push_back(s);
  }

  // At 16 B the eight slots are 32 B apart: 0..224 B covers all four
  // 64 B-interleaved banks with two loads each — perfectly balanced.
  const auto at16 = analyze(m);
  EXPECT_FALSE(has_code(at16, "banks", "bank-imbalance")) << at16.to_json();
  EXPECT_EQ(check_of(at16, "banks").metrics.at("element_bytes"), 16.0);
  EXPECT_EQ(check_of(at16, "banks").metrics.at("twiddle_imbalance"), 1.0);

  // At 8 B the same slots span only 0..112 B: banks 2 and 3 are never
  // touched and the twiddle imbalance doubles to 2.0 — flagged. First via
  // the explicit option override...
  AnalysisOptions opts;
  opts.banks.element_bytes = 8;
  const auto at8 = analyze(m, opts);
  EXPECT_TRUE(has_code(at8, "banks", "bank-imbalance")) << at8.to_json();
  EXPECT_EQ(check_of(at8, "banks").metrics.at("element_bytes"), 8.0);
  EXPECT_EQ(check_of(at8, "banks").metrics.at("twiddle_imbalance"), 2.0);

  // ...then inherited from the model's own width (option 0 = inherit).
  m.element_bytes = 8;
  const auto inherited = analyze(m);
  EXPECT_TRUE(has_code(inherited, "banks", "bank-imbalance"))
      << inherited.to_json();
  EXPECT_EQ(check_of(inherited, "banks").metrics.at("element_bytes"), 8.0);
}

// ---- Model / report plumbing ----

TEST(Analyzer, ModelMatchesPlanAlgebra) {
  const FftPlan plan(4096, 6);
  const PlanModel m = build_model(plan, TwiddleLayout::kLinear, Schedule::kCounters);
  EXPECT_EQ(m.codelets.size(), plan.total_tasks());
  EXPECT_EQ(m.graph.node_count(), plan.total_tasks());
  ASSERT_FALSE(m.groups.empty());
  for (const GroupModel& g : m.groups) {
    EXPECT_EQ(g.threshold, plan.group_threshold(g.stage));
    EXPECT_EQ(g.producers.size(), g.threshold);
    EXPECT_EQ(g.members.size(), plan.group_size(g.stage));
  }
  // Spot-check one footprint against the plan's index algebra.
  std::vector<std::uint64_t> elems;
  plan.task_elements(1, 3, elems);
  const std::size_t pos = m.find({1, 3});
  ASSERT_NE(pos, PlanModel::npos);
  EXPECT_EQ(m.codelets[pos].reads, elems);
  EXPECT_EQ(m.codelets[pos].writes, elems);
}

TEST(Analyzer, BarrierScheduleSkipsCounterChecksButOrdersStages) {
  const auto report = analyze(clean_model(256, 6, TwiddleLayout::kLinear,
                                          Schedule::kBarrier));
  EXPECT_EQ(report.errors(), 0u) << report.to_json();
  EXPECT_FALSE(check_of(report, "graph").note.empty());

  // Same-stage overlap still races under barriers.
  PlanModel m = clean_model(256, 6, TwiddleLayout::kLinear, Schedule::kBarrier);
  m.codelets[1].writes = m.codelets[0].writes;
  EXPECT_TRUE(has_code(analyze(m), "races", "race-ww"));
}

TEST(Analyzer, JsonReportIsWellFormed) {
  const auto report =
      analyze_plan(FftPlan(4096, 6), TwiddleLayout::kLinear, Schedule::kCounters);
  const std::string json = report.to_json();
  for (const char* needle :
       {"\"fft_lint\"", "\"version\":1", "\"plan\"", "\"checks\"", "\"graph\"",
        "\"races\"", "\"banks\"", "\"status\"", "\"imbalance\""})
    EXPECT_NE(json.find(needle), std::string::npos) << needle << " missing:\n" << json;
  // Balanced braces/brackets (cheap structural sanity without a parser).
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
}

// ---- Pipeline model: shipped composite shapes verify clean ----

TEST(Pipeline, EveryBuilderIsCleanAtBothPrecisions) {
  for (const unsigned eb : {16u, 8u}) {
    PipelineBuildOptions opts;
    opts.element_bytes = eb;
    std::vector<PipelineModel> models;
    models.push_back(build_classic_pipeline(FftPlan(4096, 6), opts));
    opts.layout = TwiddleLayout::kBitReversed;
    models.push_back(build_classic_pipeline(FftPlan(4096, 6), opts));
    opts.layout = TwiddleLayout::kLinear;
    models.push_back(build_batch_pipeline(256, 8, opts));
    models.push_back(build_batch_pipeline(256, 1, opts));  // a single call
    models.push_back(build_hierarchical_pipeline(8192, opts));  // 64 x 128
    models.push_back(build_hierarchical_pipeline(4096, opts));  // 64 x 64
    models.push_back(build_fft2d_pipeline(32, 32, opts));
    models.push_back(build_fft2d_pipeline(16, 32, opts));
    models.push_back(build_real_fft_pipeline(512, opts));
    models.push_back(build_mixed_radix_pipeline(360, opts));   // [8, 5, 3, 3]
    models.push_back(build_mixed_radix_pipeline(1000, opts));  // [8, 5, 5, 5]
    models.push_back(build_bluestein_pipeline(101, opts));  // prime, conv 256
    for (const PipelineModel& m : models) {
      const auto report = analyze_pipeline(m);
      EXPECT_EQ(report.errors(), 0u)
          << m.name << " eb=" << eb << "\n" << report.to_json();
      EXPECT_EQ(report.schedule, "pipeline");
      EXPECT_EQ(check_of(report, "coverage").status, "pass")
          << m.name << "\n" << report.to_json();
      EXPECT_EQ(check_of(report, "coverage").metrics.at("write_overlaps"), 0.0);
      EXPECT_EQ(check_of(report, "coverage").metrics.at("undefined_reads"), 0.0);
    }
  }
}

TEST(Pipeline, ModelMirrorsExecutorGrains) {
  // The model's phase shapes must be the executor's, derived from the
  // same hooks — not a lookalike that can drift.
  PipelineBuildOptions opts;
  opts.workers = 4;
  const PipelineModel classic = build_classic_pipeline(FftPlan(4096, 6), opts);
  ASSERT_GE(classic.phases.size(), 2u);
  EXPECT_EQ(classic.phases.front().name, "bitrev");
  EXPECT_EQ(classic.phases.front().tasks.size(),
            fft::bitrev_sweep_grain(4096, 4).chunks);
  EXPECT_EQ(classic.phases[1].tasks.size(), FftPlan(4096, 6).tasks_per_stage());

  // Hierarchical tasks are the blocks of the runtime grain, one per
  // index of the executor's two parallel_for calls, not per-tile fictions.
  PipelineBuildOptions hopts;
  hopts.workers = 4;
  const PipelineModel hier = build_hierarchical_pipeline(4096, hopts);
  ASSERT_EQ(hier.phases.size(), 2u);
  EXPECT_EQ(hier.phases[0].name, "gather-col");
  EXPECT_EQ(hier.phases[1].name, "fused-row");
  const fft::HierarchicalGrain grain =
      fft::hierarchical_grain(64, 64, 4, 16, util::cache_info().l2_bytes);
  EXPECT_EQ(hier.phases[0].tasks.size(), grain.blocks1);
  EXPECT_EQ(hier.phases[1].tasks.size(), grain.blocks2);

  // A pinned L2 replaces the host's in the block grain: at 2^16 (256 x
  // 256) on one worker, a 128 KiB L2 caps the row panel at 16 rows where
  // 2 MiB allows the 64-row workers*4 cap.
  PipelineBuildOptions pinned_opts;
  pinned_opts.workers = 1;
  pinned_opts.l2_bytes = 128u << 10;
  const PipelineModel pinned =
      build_hierarchical_pipeline(std::uint64_t{1} << 16, pinned_opts);
  const fft::HierarchicalGrain small =
      fft::hierarchical_grain(256, 256, 1, 16, pinned_opts.l2_bytes);
  EXPECT_EQ(small.blocks2, 16u);
  ASSERT_EQ(pinned.phases.size(), 2u);
  EXPECT_EQ(pinned.phases[0].name, "gather-col");
  EXPECT_EQ(pinned.phases[0].tasks.size(), small.blocks1);
  EXPECT_EQ(pinned.phases[1].tasks.size(), small.blocks2);
  pinned_opts.l2_bytes = 2u << 20;
  const PipelineModel roomy =
      build_hierarchical_pipeline(std::uint64_t{1} << 16, pinned_opts);
  EXPECT_EQ(roomy.phases[1].tasks.size(), 4u);
}

TEST(Pipeline, TileTrafficSplitsTransposeFromButterfly) {
  const PipelineModel m = build_hierarchical_pipeline(4096);  // 64 x 64
  const auto report = analyze_pipeline(m);
  const auto& metrics = check_of(report, "tile-traffic").metrics;
  // A column-block task is one gather-in pass plus one column sweep, a
  // fused tail exactly two movement passes (gather-in + writeback-out)
  // around its row-FFT streams: each phase moves and sweeps equally per
  // pass.
  const auto& col = m.phases[0].tasks.front();
  EXPECT_EQ(col.passes, 2u);
  EXPECT_EQ(col.movement_passes, 1u);
  EXPECT_GT(metrics.at("phase0_transpose_bytes"), 0.0);
  EXPECT_EQ(metrics.at("phase0_transpose_bytes"),
            metrics.at("phase0_butterfly_bytes"));
  // Each row is one whole-transform sweep, so the fused task streams its
  // block three times at any row length.
  const auto& fused = m.phases[1].tasks.front();
  EXPECT_EQ(fused.passes, 3u);
  EXPECT_EQ(fused.movement_passes, 2u);
  EXPECT_EQ(metrics.at("phase1_transpose_bytes"),
            2 * metrics.at("phase1_butterfly_bytes"));
  EXPECT_GT(metrics.at("phase1_butterfly_bytes"), 0.0);
  EXPECT_NEAR(metrics.at("transpose_bytes") + metrics.at("butterfly_bytes"),
              metrics.at("total_bytes"), 0.5);
}

TEST(Pipeline, BluesteinModelsAHierarchicalConvolution) {
  // From n = 65537 (M = 2^18) on, the executor runs each inner M-point
  // FFT as the hierarchical pipeline, and so does the model: modulate,
  // the two pipeline phases, pointwise, two more, demodulate.
  ASSERT_EQ(fft::bluestein_fft_size(65537), 1ULL << 18);
  const PipelineModel m = build_bluestein_pipeline(65537);
  std::vector<std::string> names;
  for (const PhaseModel& p : m.phases) names.push_back(p.name);
  const std::vector<std::string> want = {
      "modulate",      "fwd-gather-col", "fwd-fused-row", "pointwise",
      "inv-gather-col", "inv-fused-row", "demodulate"};
  EXPECT_EQ(names, want);
  const auto report = analyze_pipeline(m);
  EXPECT_EQ(report.errors(), 0u) << report.to_json();
  const CheckResult& coverage = check_of(report, "coverage");
  EXPECT_EQ(coverage.status, "pass") << report.to_json();
  EXPECT_EQ(coverage.metrics.at("write_overlaps"), 0.0);
  EXPECT_EQ(coverage.metrics.at("undefined_reads"), 0.0);
}

// ---- Seeded pipeline defects ----

TEST(Pipeline, SeededTileOverlapIsCaught) {
  PipelineModel m = transpose_pipeline();
  // A transpose tile that also writes its neighbour's first element — the
  // tile-bounds off-by-one the coverage proof exists for.
  PhaseModel& transpose = phase_named(m, "transpose");
  ASSERT_GE(transpose.tasks.size(), 2u);
  transpose.tasks[1].writes.push_back(transpose.tasks[0].writes.front());
  const auto report = analyze_pipeline(m);
  EXPECT_TRUE(has_code(report, "coverage", "write-overlap")) << report.to_json();
  EXPECT_FALSE(report.passed());
}

TEST(Pipeline, SeededDroppedTileIsACoverageGap) {
  PipelineModel m = transpose_pipeline();
  phase_named(m, "transpose").tasks.pop_back();
  const auto report = analyze_pipeline(m);
  EXPECT_TRUE(has_code(report, "coverage", "coverage-gap")) << report.to_json();
  EXPECT_FALSE(report.passed());
}

TEST(Pipeline, SeededMissingProducerPhaseIsReadBeforeWrite) {
  PipelineModel m = transpose_pipeline();
  // Drop the transpose: the column sweep now reads scratch no phase ever
  // wrote.
  std::erase_if(m.phases,
                [](const PhaseModel& p) { return p.name == "transpose"; });
  const auto report = analyze_pipeline(m);
  EXPECT_TRUE(has_code(report, "coverage", "read-before-write"))
      << report.to_json();
  EXPECT_FALSE(report.passed());
}

TEST(Pipeline, SeededIntraPhaseAliasIsCaught) {
  PipelineModel m = transpose_pipeline();
  // A tile reading an element another tile of the same phase writes:
  // unordered tasks, so the read races the write (fused-stage aliasing).
  PhaseModel& transpose = phase_named(m, "transpose");
  transpose.tasks[0].reads.push_back(transpose.tasks[1].writes.front());
  const auto report = analyze_pipeline(m);
  EXPECT_TRUE(has_code(report, "coverage", "phase-aliasing")) << report.to_json();
  EXPECT_FALSE(report.passed());
}

TEST(Pipeline, SeededOutOfBoundsAccessIsCaught) {
  PipelineModel m = build_classic_pipeline(FftPlan(256, 6));
  PipelineTask& task = m.phases.back().tasks.front();
  task.writes.push_back({0, m.buffers[0].elements});  // one past the end
  const auto report = analyze_pipeline(m);
  EXPECT_TRUE(has_code(report, "coverage", "oob-access")) << report.to_json();
  EXPECT_FALSE(report.passed());
}

TEST(Pipeline, SameTaskRewriteIsLegal) {
  // "Exactly once" is per element per phase across distinct tasks: a
  // task revisiting its own element (in-place multi-level butterflies)
  // must not trip the proof.
  PipelineModel m = build_classic_pipeline(FftPlan(256, 6));
  PipelineTask& task = m.phases.back().tasks.front();
  task.writes.push_back(task.writes.front());
  const auto report = analyze_pipeline(m);
  EXPECT_EQ(report.errors(), 0u) << report.to_json();
}

TEST(Pipeline, SeededSkewIsFlaggedAndStrictPromotes) {
  PipelineModel skewed = build_classic_pipeline(FftPlan(4096, 6));
  // One codelet of the last stage streams its footprint 64x: the skewed
  // schedule the cost model exists for.
  skewed.phases.back().tasks.front().passes *= 64;
  const auto report = analyze_pipeline(skewed);
  EXPECT_TRUE(has_code(report, "cost", "load-imbalance")) << report.to_json();
  EXPECT_EQ(report.errors(), 0u);  // warning by default

  PipelineAnalysisOptions strict;
  strict.cost.strict = true;
  const auto hard = analyze_pipeline(skewed, strict);
  EXPECT_GT(hard.errors(), 0u);
  EXPECT_FALSE(hard.passed());
}

TEST(Pipeline, SeededTileTrafficImbalanceIsFlaggedAndStrictPromotes) {
  PipelineModel balanced = build_hierarchical_pipeline(4096);
  {
    const auto report = analyze_pipeline(balanced);
    EXPECT_FALSE(has_code(report, "tile-traffic", "tile-traffic-imbalance"))
        << report.to_json();
  }

  // One gather block suddenly re-streams its tiles 16x — the skewed
  // per-level traffic the report exists to surface (a mis-grained block
  // doing many blocks' movement behind the same dependency counter).
  PipelineModel skewed = std::move(balanced);
  skewed.phases.front().tasks.front().passes *= 16;
  const auto report = analyze_pipeline(skewed);
  EXPECT_TRUE(has_code(report, "tile-traffic", "tile-traffic-imbalance"))
      << report.to_json();
  EXPECT_EQ(report.errors(), 0u);  // warning by default

  PipelineAnalysisOptions strict;
  strict.tile_traffic.strict = true;
  const auto hard = analyze_pipeline(skewed, strict);
  EXPECT_GT(hard.errors(), 0u);
  EXPECT_FALSE(hard.passed());
}

TEST(Pipeline, SeededBankConcentrationIsFlagged) {
  // Hand-built phase whose every access strides by banks * interleave
  // bytes: all traffic on the base bank, imbalance = banks.
  PipelineModel m;
  m.name = "seeded-bank";
  m.n = 64;
  const std::uint32_t buf = m.add_buffer("data", 64, /*input=*/true);
  PhaseModel phase;
  phase.name = "hot";
  for (std::uint64_t t = 0; t < 4; ++t) {
    PipelineTask task;
    task.index = t;
    for (std::uint64_t e = 0; e < 64; e += 16)  // 16 * 16 B = 256 B stride
      task.reads.push_back({buf, e});
    phase.tasks.push_back(std::move(task));
  }
  m.phases.push_back(std::move(phase));
  const auto report = analyze_pipeline(m);
  EXPECT_TRUE(has_code(report, "cost", "bank-bytes-imbalance"))
      << report.to_json();
  EXPECT_EQ(check_of(report, "cost").metrics.at("bank_imbalance"), 4.0);
}

TEST(Pipeline, CostProfileIsConsistent) {
  const PipelineModel m = build_hierarchical_pipeline(1 << 14);  // 128 x 128
  const auto report = analyze_pipeline(m);
  const auto& metrics = check_of(report, "cost").metrics;
  const double span = metrics.at("span_cost");
  const double work = metrics.at("total_work");
  const double bound = metrics.at("makespan_bound");
  // Graham's bound is sandwiched between the two trivial schedules.
  EXPECT_GE(bound, span * (1.0 - 1e-9));
  EXPECT_LE(bound, work * (1.0 + 1e-9));
  EXPECT_GE(metrics.at("avg_parallelism"), 1.0);
  // Per-phase rows exist for every phase.
  for (std::size_t p = 0; p < m.phases.size(); ++p)
    EXPECT_TRUE(metrics.count("phase" + std::to_string(p) + "_span")) << p;
}

// ---- Kernel dispatch check ----

TEST(Pipeline, ModelsRecordTheActiveKernelIsa) {
  const PipelineModel m = build_classic_pipeline(FftPlan(1024, 5));
  EXPECT_EQ(m.kernel_isa,
            util::to_string(fft::kernels::active_kernel_isa()));
  const auto report = analyze_pipeline(m);
  EXPECT_EQ(check_of(report, "kernel").status, "pass") << report.to_json();
  // Pipeline reports surface the dispatch id in the layout slot.
  EXPECT_EQ(report.layout, m.kernel_isa);
}

TEST(Pipeline, ForcedIsaLevelsAreStampedAndVerifyClean) {
  const util::IsaLevel prev = fft::kernels::active_kernel_isa();
  for (const util::IsaLevel level :
       {util::IsaLevel::kScalar, util::IsaLevel::kAvx2}) {
    const util::IsaLevel active = fft::kernels::set_kernel_isa(level);
    const PipelineModel m = build_hierarchical_pipeline(4096);
    EXPECT_EQ(m.kernel_isa, util::to_string(active));
    const auto report = analyze_pipeline(m);
    const auto& check = check_of(report, "kernel");
    EXPECT_EQ(check.status, "pass") << util::to_string(level);
    EXPECT_EQ(check.metrics.at("isa_level"), static_cast<double>(active));
  }
  fft::kernels::set_kernel_isa(prev);
}

TEST(Pipeline, UnknownKernelIsaIdFailsTheKernelCheck) {
  PipelineModel m = build_classic_pipeline(FftPlan(256, 4));
  m.kernel_isa = "sse9";
  const auto report = analyze_pipeline(m);
  EXPECT_TRUE(has_code(report, "kernel", "unknown-kernel-isa"))
      << report.to_json();
  EXPECT_FALSE(report.passed());
}

TEST(Pipeline, UnsupportedKernelIsaIdFailsOnLesserHosts) {
  // A model claiming the avx2 table names a kernel a scalar-only host
  // cannot run; the host's best level is an argument, so every host
  // checks this.
  PipelineModel m = build_classic_pipeline(FftPlan(256, 4));
  m.kernel_isa = "avx2";
  const CheckResult check = check_kernel_dispatch(m, util::IsaLevel::kScalar);
  ASSERT_EQ(check.diagnostics.size(), 1u);
  EXPECT_EQ(check.diagnostics[0].code, "unsupported-kernel-isa");
  EXPECT_EQ(check.status, "fail");
  EXPECT_EQ(check_kernel_dispatch(m, util::IsaLevel::kAvx2).errors(), 0u);
}

TEST(Pipeline, HandBuiltModelsSkipTheKernelCheck) {
  PipelineModel m;
  m.name = "hand-built";
  m.n = 16;
  const std::uint32_t buf = m.add_buffer("data", 16, /*input=*/true);
  PhaseModel phase;
  phase.name = "noop";
  PipelineTask task;
  task.reads.push_back({buf, 0});
  phase.tasks.push_back(std::move(task));
  m.phases.push_back(std::move(phase));
  const auto report = analyze_pipeline(m);
  EXPECT_EQ(check_of(report, "kernel").status, "skipped");
  EXPECT_EQ(check_of(report, "kernel").errors(), 0u);
}

// ---- Baseline gate ----

TEST(LintBaseline, RowsRoundTripThroughJson) {
  const auto rows = collect_lint_rows();
  ASSERT_EQ(rows.size(), 18u);  // 9 shapes x 2 precisions
  const std::string json = lint_rows_to_json(rows);
  const auto parsed = lint_rows_from_json(util::json_parse(json));
  ASSERT_EQ(parsed.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(parsed[i].key, rows[i].key);
    ASSERT_EQ(parsed[i].metrics.size(), rows[i].metrics.size());
    for (std::size_t k = 0; k < rows[i].metrics.size(); ++k) {
      EXPECT_EQ(parsed[i].metrics[k].first, rows[i].metrics[k].first);
      EXPECT_EQ(parsed[i].metrics[k].second, rows[i].metrics[k].second);
    }
  }
  // Deterministic inputs: a self-diff is clean at any tolerance.
  LintGateOptions tight;
  tight.tolerance = 0.0;
  EXPECT_FALSE(has_lint_regression(diff_lint_rows(rows, rows, tight)));
}

TEST(LintBaseline, GateCatchesRegressionAndMissingRow) {
  const auto baseline = collect_lint_rows();
  auto current = collect_lint_rows();

  // Higher-is-worse drift beyond tolerance fails...
  for (auto& [name, value] : current[0].metrics)
    if (name == "span_cost") value *= 1.2;
  auto deltas = diff_lint_rows(baseline, current, {});
  EXPECT_TRUE(has_lint_regression(deltas));
  bool found = false;
  for (const auto& d : deltas)
    if (d.key == baseline[0].key && d.metric == "span_cost") {
      EXPECT_TRUE(d.regressed);
      EXPECT_NEAR(d.worse_ratio, 1.2, 1e-9);
      found = true;
    }
  EXPECT_TRUE(found);

  // ...as does a lower-is-worse drop in parallelism...
  current = collect_lint_rows();
  for (auto& [name, value] : current[1].metrics)
    if (name == "avg_parallelism") value *= 0.8;
  EXPECT_TRUE(has_lint_regression(diff_lint_rows(baseline, current, {})));

  // ...and a shape silently vanishing from the matrix.
  current = collect_lint_rows();
  current.pop_back();
  deltas = diff_lint_rows(baseline, current, {});
  EXPECT_TRUE(has_lint_regression(deltas));
  const std::string report = format_lint_report(deltas, {});
  EXPECT_NE(report.find("missing"), std::string::npos);
  EXPECT_NE(report.find("FAIL"), std::string::npos);

  // Within-tolerance drift passes.
  current = collect_lint_rows();
  for (auto& [name, value] : current[0].metrics)
    if (name == "span_cost") value *= 1.05;
  EXPECT_FALSE(has_lint_regression(diff_lint_rows(baseline, current, {})));
}

}  // namespace
}  // namespace c64fft::analysis
