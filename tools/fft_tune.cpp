// fft_tune — offline schedule autotuner for the executor's kernel layer.
//
// For every requested (transform size, precision) at the process-active
// kernel ISA, benches the candidates of the sweep's scheduling knob —
// fuse_log2, how many leading butterfly levels the whole-transform
// split-complex sweep collapses into one fused pass — through the real
// FftExecutor path, and keeps the fastest. Every pow2 transform below the
// hierarchical threshold runs that one sweep on every team size, so the
// search is the same at every --workers. Every candidate computes
// bit-identical results; only throughput differs, so the search is purely
// a timing exercise.
//
// Each candidate is installed as a one-entry ScheduleSet on the executor
// (exactly the mechanism production uses to consume a tuned file), so the
// tuner measures — and therefore validates — the full plan-cache lookup
// path, not a side channel. Winners serialize with --emit to the JSON
// format FftExecutor::load_schedules / C64FFT_SCHEDULE consume.
//
// With --hierarchical the searched grid switches to the large-N
// hierarchical path's knobs — hier_leaf_log2 (the recursive split's leaf
// cap, which fixes the level count and every per-level (n1, n2)) and
// hier_block_rows (rows per pipelined tile-block) — through an executor
// whose threshold routes the tuned sizes onto PlanKind::kHierarchical.
//
//   fft_tune                                   # tune defaults, print table
//   fft_tune --sizes=4096,16384 --precision=f32 --emit=schedule.json
//   fft_tune --isa=avx2 --verbose              # every candidate's timing
//   fft_tune --hierarchical --sizes=1048576 --emit=hier.json
//                                              # large-N hierarchical grid
//
// Exit codes: 0 success, 2 usage error.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "fft/executor.hpp"
#include "fft/kernels/dispatch.hpp"
#include "fft/schedule.hpp"
#include "util/bit_ops.hpp"
#include "util/cli.hpp"
#include "util/cpu_features.hpp"
#include "util/prng.hpp"

using namespace c64fft;

namespace {

std::vector<std::uint64_t> parse_u64_list(const std::string& text,
                                          const char* what) {
  std::vector<std::uint64_t> out;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t comma = std::min(text.find(',', pos), text.size());
    const std::string item = text.substr(pos, comma - pos);
    if (item.empty())
      throw std::invalid_argument(std::string(what) + ": empty list item");
    std::size_t used = 0;
    const unsigned long long v = std::stoull(item, &used, 10);
    if (used != item.size())
      throw std::invalid_argument(std::string(what) + ": bad number \"" + item +
                                  "\"");
    out.push_back(v);
    pos = comma + 1;
  }
  if (out.empty()) throw std::invalid_argument(std::string(what) + ": empty");
  return out;
}

/// Median wall time of one executor forward() at size n, in nanoseconds.
/// Every rep transforms a fresh copy of one deterministic input (the copy
/// cost is identical across candidates, so rankings are unaffected).
template <typename T>
double median_forward_ns(fft::FftExecutor& exec, std::uint64_t n,
                         unsigned warmup, unsigned reps, std::uint64_t seed) {
  using clock = std::chrono::steady_clock;
  std::vector<fft::cplx_t<T>> pristine(n), work(n);
  util::Xoshiro256 rng(seed ^ n);
  for (fft::cplx_t<T>& v : pristine)
    v = fft::cplx_t<T>(static_cast<T>(2.0 * rng.next_double() - 1.0),
                       static_cast<T>(2.0 * rng.next_double() - 1.0));

  std::vector<double> samples;
  samples.reserve(reps);
  for (unsigned r = 0; r < warmup + reps; ++r) {
    std::copy(pristine.begin(), pristine.end(), work.begin());
    const clock::time_point t0 = clock::now();
    exec.forward(std::span<fft::cplx_t<T>>(work));
    const clock::time_point t1 = clock::now();
    if (r >= warmup)
      samples.push_back(
          std::chrono::duration<double, std::nano>(t1 - t0).count());
  }
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                   samples.end());
  return samples[samples.size() / 2];
}

template <typename T>
fft::TunedSchedule tune_one(fft::FftExecutor& exec, std::uint64_t n,
                            util::IsaLevel isa,
                            const std::vector<std::uint64_t>& fuse_candidates,
                            unsigned warmup, unsigned reps, std::uint64_t seed,
                            bool verbose) {
  const fft::Precision precision = fft::precision_of<T>;
  fft::TunedSchedule best;
  double best_ns = 0.0;
  bool have_best = false;
  for (const std::uint64_t fuse_log2 : fuse_candidates) {
    const fft::TunedSchedule candidate{n, precision, isa,
                                       static_cast<std::uint32_t>(fuse_log2)};
    fft::ScheduleSet one;
    one.insert(candidate);
    exec.set_schedules(std::move(one));
    const double ns = median_forward_ns<T>(exec, n, warmup, reps, seed);
    if (verbose)
      std::cout << "  n=" << n << ' ' << to_string(precision)
                << " isa=" << util::to_string(isa) << " fuse_log2=" << fuse_log2
                << "  " << ns / 1e3 << " us\n";
    if (!have_best || ns < best_ns) {
      best = candidate;
      best_ns = ns;
      have_best = true;
    }
  }
  std::cout << "n=" << n << ' ' << to_string(precision)
            << " isa=" << util::to_string(isa)
            << ": best fuse_log2=" << best.fuse_log2 << "  " << best_ns / 1e3
            << " us\n";
  return best;
}

/// Hierarchical-path search: the (hier_leaf_log2, hier_block_rows) grid at
/// large n, through an executor whose threshold routes these sizes onto
/// PlanKind::kHierarchical. Every candidate is installed as a one-entry
/// ScheduleSet — the same plan-cache lookup (PlanKey::hier_leaf_log2, the
/// run_hierarchical_locked block-rows override) a production C64FFT_SCHEDULE
/// file drives — so what wins here is exactly what a tuned file replays.
/// Candidate 0 means "planner default" for either knob (leaf derived from
/// the measured cache hierarchy, block rows from the L2 panel policy), so
/// the defaults compete on equal footing and are emitted explicitly only
/// when a non-default setting beats them.
template <typename T>
fft::TunedSchedule tune_hierarchical_one(
    fft::FftExecutor& exec, std::uint64_t n, util::IsaLevel isa,
    const std::vector<std::uint64_t>& leaf_candidates,
    const std::vector<std::uint64_t>& block_rows_candidates, unsigned warmup,
    unsigned reps, std::uint64_t seed, bool verbose) {
  const fft::Precision precision = fft::precision_of<T>;
  const unsigned log2n = util::ilog2(n);
  fft::TunedSchedule best;
  double best_ns = 0.0;
  bool have_best = false;
  for (const std::uint64_t leaf_log2 : leaf_candidates) {
    // A leaf must leave at least one split level (leaf < log2n) and stay
    // inside the schedule format's range; 0 delegates to the planner.
    if (leaf_log2 != 0 && (leaf_log2 < 4 || leaf_log2 > 16 ||
                           leaf_log2 >= log2n))
      continue;
    for (const std::uint64_t block_rows : block_rows_candidates) {
      if (block_rows > 4096) continue;
      fft::TunedSchedule candidate;
      candidate.n = n;
      candidate.precision = precision;
      candidate.isa = isa;
      candidate.hier_leaf_log2 = static_cast<std::uint32_t>(leaf_log2);
      candidate.hier_block_rows = static_cast<std::uint32_t>(block_rows);
      fft::ScheduleSet one;
      one.insert(candidate);
      exec.set_schedules(std::move(one));
      const double ns = median_forward_ns<T>(exec, n, warmup, reps, seed);
      if (verbose)
        std::cout << "  n=" << n << ' ' << to_string(precision)
                  << " isa=" << util::to_string(isa)
                  << " hier_leaf_log2=" << leaf_log2
                  << " hier_block_rows=" << block_rows << "  " << ns / 1e6
                  << " ms\n";
      if (!have_best || ns < best_ns) {
        best = candidate;
        best_ns = ns;
        have_best = true;
      }
    }
  }
  if (!have_best)
    throw std::invalid_argument(
        "fft_tune: no legal hierarchical candidate for n=" +
        std::to_string(n));
  std::cout << "n=" << n << ' ' << to_string(precision)
            << " isa=" << util::to_string(isa)
            << ": best hier_leaf_log2=" << best.hier_leaf_log2
            << " hier_block_rows=" << best.hier_block_rows << "  "
            << best_ns / 1e6 << " ms\n";
  return best;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli(
      "fft_tune — searches the fuse_log2 schedule knob per "
      "(size, precision) on the active kernel ISA and emits the winners as "
      "a JSON schedule file for FftExecutor::load_schedules / "
      "C64FFT_SCHEDULE.\nExit codes: 0 success, 2 usage error.");
  cli.add_string("sizes", "1024,4096,16384",
                 "comma-separated transform sizes (powers of two)");
  cli.add_string("precision", "both", "f32 | f64 | both");
  cli.add_string("isa", "auto",
                 "kernel ISA to tune on: scalar | avx2 | avx512 | auto "
                 "(C64FFT_ISA if set, else best supported; requests above "
                 "the host clamp down)");
  cli.add_string("fuse", "0,2,3", "fuse_log2 candidates (0, 2, 3)");
  cli.add_flag("hierarchical",
               "search the hierarchical-path grid (leaf, block-rows) instead "
               "of fuse; sizes route through PlanKind::kHierarchical");
  cli.add_string("leaf", "0,10,11,12,14",
                 "hier_leaf_log2 candidates (0 = planner default from the "
                 "measured cache hierarchy)");
  cli.add_string("block-rows", "0,16,32,64",
                 "hier_block_rows candidates (0 = L2 panel policy default)");
  cli.add_int("reps", 31, "timed repetitions per candidate (median wins)");
  cli.add_int("warmup", 5, "untimed warm-up repetitions per candidate");
  cli.add_int("workers", 1,
              "executor team size while tuning (1 = least timing noise)");
  cli.add_int("seed", 42, "PRNG seed for the input signal");
  cli.add_string("emit", "", "write the winning schedules to this JSON file");
  cli.add_flag("verbose", "print every candidate's timing, not just winners");

  try {
    if (!cli.parse(argc, argv)) return 0;

    const std::vector<std::uint64_t> sizes =
        parse_u64_list(cli.get_string("sizes"), "--sizes");
    for (const std::uint64_t n : sizes)
      if (!util::is_pow2(n) || n < 2)
        throw std::invalid_argument("--sizes: " + std::to_string(n) +
                                    " is not a power of two >= 2");
    const std::vector<std::uint64_t> fuse_candidates =
        parse_u64_list(cli.get_string("fuse"), "--fuse");
    for (const std::uint64_t f : fuse_candidates)
      if (f != 0 && f != 2 && f != 3)
        throw std::invalid_argument("--fuse: fuse_log2 must be 0, 2, or 3");

    const std::string precision = cli.get_string("precision");
    const bool do_f32 = precision == "f32" || precision == "both";
    const bool do_f64 = precision == "f64" || precision == "both";
    if (!do_f32 && !do_f64)
      throw std::invalid_argument("--precision: expected f32 | f64 | both");

    const std::string isa_flag = cli.get_string("isa");
    util::IsaLevel isa;
    if (isa_flag == "auto") {
      // "auto" honors C64FFT_ISA like every other entry point (a forced
      // scalar environment must tune what it will run), falling back to
      // the cpuid probe when the variable is unset.
      isa = fft::kernels::reset_kernel_isa_from_env();
    } else {
      const std::optional<util::IsaLevel> requested =
          util::parse_isa_name(isa_flag);
      if (!requested)
        throw std::invalid_argument("--isa: unknown level \"" + isa_flag +
                                    "\"");
      // set_kernel_isa clamps to what the host supports; record the level
      // the kernels actually run at, never the request.
      isa = fft::kernels::set_kernel_isa(*requested);
      if (isa != *requested)
        std::cout << "note: host does not support "
                  << util::to_string(*requested) << "; tuning on "
                  << util::to_string(isa) << " instead\n";
    }

    const unsigned reps = static_cast<unsigned>(
        std::max<std::int64_t>(1, cli.get_int("reps")));
    const unsigned warmup =
        static_cast<unsigned>(std::max<std::int64_t>(0, cli.get_int("warmup")));
    const std::uint64_t seed = static_cast<std::uint64_t>(cli.get_int("seed"));

    const bool hierarchical = cli.flag("hierarchical");
    fft::ExecutorOptions opts;
    opts.workers = static_cast<unsigned>(
        std::max<std::int64_t>(1, cli.get_int("workers")));
    if (hierarchical) {
      // Route every tuned size onto the hierarchical path regardless of
      // the default threshold — the grid being searched only executes
      // there.
      opts.hierarchical_threshold_log2 = 2;
    }
    fft::FftExecutor exec(opts);

    const std::vector<std::uint64_t> leaf_candidates =
        parse_u64_list(cli.get_string("leaf"), "--leaf");
    const std::vector<std::uint64_t> block_rows_candidates =
        parse_u64_list(cli.get_string("block-rows"), "--block-rows");

    fft::ScheduleSet winners;
    for (const std::uint64_t n : sizes) {
      if (hierarchical) {
        if (do_f32)
          winners.insert(tune_hierarchical_one<float>(
              exec, n, isa, leaf_candidates, block_rows_candidates, warmup,
              reps, seed, cli.flag("verbose")));
        if (do_f64)
          winners.insert(tune_hierarchical_one<double>(
              exec, n, isa, leaf_candidates, block_rows_candidates, warmup,
              reps, seed, cli.flag("verbose")));
        continue;
      }
      if (do_f32)
        winners.insert(tune_one<float>(exec, n, isa, fuse_candidates, warmup,
                                       reps, seed, cli.flag("verbose")));
      if (do_f64)
        winners.insert(tune_one<double>(exec, n, isa, fuse_candidates, warmup,
                                        reps, seed, cli.flag("verbose")));
    }

    const std::string emit = cli.get_string("emit");
    if (!emit.empty()) {
      std::ofstream out(emit);
      if (!out) throw std::runtime_error("fft_tune: cannot write " + emit);
      out << winners.to_json();
      std::cout << "wrote " << winners.size() << " schedule(s) to " << emit
                << '\n';
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "fft_tune: " << e.what() << '\n';
    std::cerr << cli.help();
    return 2;
  }
}
