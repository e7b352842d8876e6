#pragma once
// One-call experiment runner: simulate one of the paper's FFT versions
// (Table I) on the modelled C64 and report cycles / GFLOPS / bank
// statistics. The "fine worst"/"fine best" rows sweep the pool orderings
// and return the envelope, exactly like the paper's empirical min/max.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "c64/config.hpp"
#include "c64/engine.hpp"
#include "c64/trace.hpp"
#include "paper/ordering.hpp"
#include "paper/twiddle_table.hpp"

namespace c64fft::simfft {

/// The six result rows of the paper's Table I.
enum class SimVariant {
  kCoarse,      ///< Alg. 1
  kCoarseHash,  ///< Alg. 1 + bit-reversed twiddle layout
  kFineWorst,   ///< Alg. 2, worst ordering of the sweep
  kFineBest,    ///< Alg. 2, best ordering of the sweep
  kFineHash,    ///< Alg. 2 (LIFO/natural) + bit-reversed twiddles
  kFineGuided,  ///< Alg. 3
  kFineCustom,  ///< Alg. 2 with a caller-chosen ordering
};

struct SimFftOptions {
  unsigned radix_log2 = 6;
  /// Ordering for kFineCustom.
  fft::FineOrdering ordering{};
  /// Window width for the bank trace (the paper buckets per 3e6 cycles;
  /// a finer default makes short runs legible).
  std::uint64_t trace_window = 100'000;
};

struct SimRunResult {
  std::string name;
  c64::SimResult sim;
  double gflops = 0.0;
  /// Ordering that produced the result (fine variants only).
  std::optional<fft::FineOrdering> ordering;
  /// Whole-run per-bank access totals.
  std::vector<std::uint64_t> bank_totals;
};

std::string to_string(SimVariant v);

/// 5 N log2 N flops / seconds, in GFLOPS.
double fft_gflops(std::uint64_t n, double seconds);

/// Run one version on an N-point FFT. When `trace` is non-null the
/// (final, for swept variants) run records its per-bank access series.
SimRunResult run_fft_sim(SimVariant v, std::uint64_t n, const c64::ChipConfig& cfg,
                         const SimFftOptions& opts = {}, c64::BankTrace* trace = nullptr);

/// Run all six Table-I rows.
std::vector<SimRunResult> run_all_variants(std::uint64_t n, const c64::ChipConfig& cfg,
                                           const SimFftOptions& opts = {});

}  // namespace c64fft::simfft
