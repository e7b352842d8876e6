#pragma once
// Reproduction driver for the paper's host FFT algorithms:
//
//   kCoarse — Algorithm 1: barrier after every stage (one runtime phase
//             per stage).
//   kFine   — Algorithm 2: single phase; codelets become ready through
//             shared dependency counters; pool order is free and chosen
//             by FineOrdering.
//   kGuided — Algorithm 3: fine-grain over the early stages, one barrier,
//             then the last two stages seeded sibling-group-by-group into
//             a LIFO pool so last-stage codelets start as early as
//             possible.
//
// The hashed-twiddle versions of each are obtained by passing
// TwiddleLayout::kBitReversed (the "coarse hash"/"fine hash" rows of
// Table I). Every knob changes scheduling only: each combination computes
// output bit-identical to FftExecutor::forward, which runs no stage
// schedule at all — each pow2 transform is one whole-transform sweep over
// the same butterflies in the same order, with linear twiddles and no
// radix. The paper's timing claims come from the simulator (src/simfft);
// this driver is their functional counterpart on real threads.

#include <cstdint>
#include <span>
#include <string>

#include "codelet/host_runtime.hpp"
#include "fft/ordering.hpp"
#include "fft/twiddle.hpp"
#include "fft/types.hpp"

namespace c64fft::fft {

enum class Variant { kCoarse, kFine, kGuided };

/// How fft_host schedules ready codelets.
///
/// kWorkStealing: on a codelet::HostRuntime team, the production
/// scheduler — per-worker deques with free steal order.
///
/// kSequential: the paper-order pool (run_phase_sequential). Every
/// codelet runs on the calling thread, popped from one pool in strict
/// PoolPolicy order, so the "fine best"/"fine worst" seed-order
/// experiments reproduce the exact execution sequence the single
/// mutex-pool runtime gave.
enum class SchedulerMode {
  kWorkStealing,
  kSequential,
};

/// Options of fft_host. Deliberately not related to HostFftOptions, so a
/// paper configuration cannot be passed (or sliced) into a production
/// call.
struct PaperFftOptions {
  unsigned workers = 4;
  unsigned radix_log2 = 6;
  TwiddleLayout layout = TwiddleLayout::kLinear;
  /// Seed order and pool discipline of kFine (ignored by kCoarse; kGuided
  /// always follows Alg. 3's LIFO grouped seeding).
  FineOrdering ordering = {};
  SchedulerMode mode = SchedulerMode::kWorkStealing;
};

/// The paper-order pool of SchedulerMode::kSequential: runs one phase to
/// quiescence on the calling thread, popping ONE pool in strict `policy`
/// order (push appends; kLifo pops the newest entry, kFifo the oldest).
/// Every codelet runs as worker 0, so the execution sequence is a pure
/// function of the seeds, the policy and the body. Returns the number of
/// codelets executed.
std::uint64_t run_phase_sequential(std::span<const codelet::CodeletKey> seeds,
                                   codelet::PoolPolicy policy,
                                   const codelet::CodeletBody& body);

/// In-place forward FFT of `data` with the chosen algorithm. Every call
/// builds its own plan, twiddle table, counters and worker team, so it is
/// a reproduction tool, not a fast path. Throws std::invalid_argument
/// unless N is a power of two >= 2^radix_log2.
void fft_host(std::span<cplx> data, Variant variant, const PaperFftOptions& opts);

std::string to_string(Variant v);

}  // namespace c64fft::fft
