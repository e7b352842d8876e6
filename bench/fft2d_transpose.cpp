// Extension experiment (not a paper figure): 2-D FFT on the simulated C64
// with naive vs tiled transpose. The transpose's column reads stride by a
// multiple of the 64 B interleave — the same single-bank pathology the
// paper diagnoses for the twiddle array — and tiling fixes it the same
// way balancing fixes the twiddles.
//
// A second table repeats the comparison on the REAL host: the naive
// element loop against the cache-blocked transpose.hpp kernels that
// fft2d.cpp and the hierarchical path actually use. On the host the strided
// stream folds onto a handful of L1 sets (the cache analogue of bank-0
// hot-spotting — see fft_lint --cache-sets), so the same tiling fix
// shows up as a wall-clock win instead of a bank-imbalance win.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iostream>
#include <vector>

#include "bench/bench_common.hpp"
#include "fft/transpose.hpp"
#include "simfft/fft2d_sim.hpp"
#include "util/prng.hpp"

using namespace c64fft;

namespace {

double time_ms_best_of(int reps, const std::function<void()>& body) {
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double, std::milli>(t1 - t0).count());
  }
  return best;
}

void host_transpose_table(std::uint64_t rows, std::uint64_t cols,
                          const util::CliParser& cli) {
  util::Xoshiro256 rng(42);
  std::vector<fft::cplx> src(rows * cols), dst(rows * cols);
  for (auto& x : src) x = fft::cplx(rng.next_double(), rng.next_double());
  const double bytes = 2.0 * static_cast<double>(src.size()) * sizeof(fft::cplx);
  const int reps = 9;

  bench::banner("Host transpose " + std::to_string(rows) + "x" +
                std::to_string(cols) + " (wall clock, best of " +
                std::to_string(reps) + ")");
  util::TextTable table({"transpose", "ms", "GB/s"});
  const double naive_ms = time_ms_best_of(reps, [&] {
    for (std::uint64_t r = 0; r < rows; ++r)
      for (std::uint64_t c = 0; c < cols; ++c)
        dst[c * rows + r] = src[r * cols + c];
  });
  table.add_row({"naive element loop", util::TextTable::num(naive_ms, 3),
                 util::TextTable::num(bytes / naive_ms / 1e6, 2)});
  const double blocked_ms = time_ms_best_of(
      reps, [&] { fft::transpose_blocked(src, dst, rows, cols); });
  table.add_row({"blocked (transpose.hpp)", util::TextTable::num(blocked_ms, 3),
                 util::TextTable::num(bytes / blocked_ms / 1e6, 2)});
  if (rows == cols) {
    const double inplace_ms = time_ms_best_of(
        reps, [&] { fft::transpose_inplace_square(dst, rows); });
    table.add_row({"in-place square", util::TextTable::num(inplace_ms, 3),
                   util::TextTable::num(bytes / inplace_ms / 1e6, 2)});
  }
  bench::emit(table, cli);
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli(
      "2-D FFT on the simulated C64: naive vs tiled transpose bank behaviour");
  cli.add_int("log-rows", 8, "log2 of the row count");
  cli.add_int("log-cols", 8, "log2 of the column count");
  bench::add_chip_options(cli);
  if (!cli.parse(argc, argv)) return 0;

  const auto cfg = bench::chip_from_cli(cli);
  simfft::Fft2dSimOptions opts;
  opts.rows = std::uint64_t{1} << cli.get_int("log-rows");
  opts.cols = std::uint64_t{1} << cli.get_int("log-cols");

  bench::banner("2-D FFT " + std::to_string(opts.rows) + "x" + std::to_string(opts.cols) +
                ", " + std::to_string(cfg.thread_units) + " TUs");
  util::TextTable table({"transpose", "row pass", "transpose cyc", "col pass", "total",
                         "gflops", "transpose imbalance"});
  for (bool tiled : {false, true}) {
    opts.tiled_transpose = tiled;
    const auto r = simfft::run_fft2d_sim(cfg, opts);
    table.add_row({tiled ? "tiled 4x4" : "naive column",
                   util::TextTable::num(r.row_pass.cycles),
                   util::TextTable::num(r.transpose.cycles),
                   util::TextTable::num(r.col_pass.cycles),
                   util::TextTable::num(r.total_cycles),
                   util::TextTable::num(r.gflops, 3),
                   util::TextTable::num(r.transpose_bank_imbalance, 2)});
  }
  bench::emit(table, cli);

  host_transpose_table(opts.rows, opts.cols, cli);
  return 0;
}
