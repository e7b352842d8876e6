// How the static analyzer scales with plan size: model build, graph
// verification, race detection and bank lint timed separately per N.
// fft_lint runs in CI on every plan variant, so its cost curve is a
// first-class performance surface — this table keeps it honest (the race
// check is the quadratic-risk stage; the footprint inversion keeps it
// near-linear in practice).

#include <chrono>
#include <cstdint>
#include <iostream>

#include "analysis/analyzer.hpp"
#include "bench/bench_common.hpp"
#include "paper/fft_plan.hpp"

using namespace c64fft;

namespace {

double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("Static analyzer (fft_lint) scaling across plan sizes");
  cli.add_int("min-logn", 8, "smallest log2(N)");
  cli.add_int("max-logn", 16, "largest log2(N)");
  cli.add_int("radix-log2", 6, "codelet radix (paper: 6)");
  cli.add_flag("csv", "emit CSV instead of an aligned table");
  if (!cli.parse(argc, argv)) return 0;

  const auto r = static_cast<unsigned>(cli.get_int("radix-log2"));
  bench::banner("fft_lint scaling, radix 2^" + std::to_string(r));
  util::TextTable table(
      {"logN", "codelets", "edges", "build_ms", "graph_ms", "races_ms", "banks_ms",
       "order_queries", "verdict"});

  for (std::int64_t logn = cli.get_int("min-logn"); logn <= cli.get_int("max-logn");
       ++logn) {
    const std::uint64_t n = std::uint64_t{1} << logn;
    if (n < (std::uint64_t{1} << r)) continue;
    const fft::FftPlan plan(n, r);

    auto t0 = std::chrono::steady_clock::now();
    const analysis::PlanModel model = analysis::build_model(
        plan, fft::TwiddleLayout::kLinear, analysis::Schedule::kCounters);
    const double build_ms = ms_since(t0);

    t0 = std::chrono::steady_clock::now();
    const analysis::CheckResult graph = analysis::verify_graph(model);
    const double graph_ms = ms_since(t0);

    t0 = std::chrono::steady_clock::now();
    const analysis::CheckResult races = analysis::detect_races(model);
    const double races_ms = ms_since(t0);

    t0 = std::chrono::steady_clock::now();
    const analysis::CheckResult banks = analysis::lint_banks(model);
    const double banks_ms = ms_since(t0);

    const bool clean = graph.errors() == 0 && races.errors() == 0;
    table.add_row({util::TextTable::num(static_cast<std::uint64_t>(logn)),
                   util::TextTable::num(model.codelets.size()),
                   util::TextTable::num(model.graph.edge_count()),
                   util::TextTable::num(build_ms, 2), util::TextTable::num(graph_ms, 2),
                   util::TextTable::num(races_ms, 2), util::TextTable::num(banks_ms, 2),
                   util::TextTable::num(races.metrics.at("order_queries"), 0),
                   clean ? "clean" : "DEFECT"});
  }
  bench::emit(table, cli);
  return 0;
}
