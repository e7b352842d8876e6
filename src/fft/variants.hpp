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
// Table I). Every phase runs on the paper's single shared ready pool
// (run_pool_phase) drained by a codelet::Team; a one-worker team pops it
// in strict PoolPolicy order, more workers interleave the pops freely.
// Every knob changes scheduling only: each combination computes output
// bit-identical to FftExecutor::forward, which runs no stage schedule at
// all — each pow2 transform is one whole-transform sweep over the same
// butterflies in the same order, with linear twiddles and no radix. The
// paper's timing claims come from the simulator (src/simfft); this driver
// is their functional counterpart on real threads.

#include <cstdint>
#include <span>
#include <string>

#include "codelet/codelet.hpp"
#include "codelet/team.hpp"
#include "fft/ordering.hpp"
#include "fft/twiddle.hpp"
#include "fft/types.hpp"

namespace c64fft::fft {

enum class Variant { kCoarse, kFine, kGuided };

/// Options of fft_host. Deliberately not related to HostFftOptions, so a
/// paper configuration cannot be passed (or sliced) into a production
/// call.
struct PaperFftOptions {
  /// Team size; 1 runs every codelet on the calling thread in strict
  /// paper pool order.
  unsigned workers = 4;
  unsigned radix_log2 = 6;
  TwiddleLayout layout = TwiddleLayout::kLinear;
  /// Seed order and pool discipline of kFine (ignored by kCoarse; kGuided
  /// always follows Alg. 3's LIFO grouped seeding).
  FineOrdering ordering = {};
};

/// The paper's single ready pool for one phase: seeds `seeds`, then every
/// worker of `team` pops and runs codelets (which may push children) until
/// none is queued or executing. Push appends; pops follow `policy` (kLifo
/// the newest entry, kFifo the oldest), so on a one-worker team the
/// execution sequence is a pure function of the seeds, the policy and the
/// body. The first exception a body throws stops further bodies and is
/// rethrown here.
void run_pool_phase(codelet::Team& team,
                    std::span<const codelet::CodeletKey> seeds,
                    codelet::PoolPolicy policy,
                    const codelet::CodeletBody& body);

/// In-place forward FFT of `data` with the chosen algorithm. Every call
/// builds its own plan, twiddle table, counters and worker team, so it is
/// a reproduction tool, not a fast path. Throws std::invalid_argument
/// unless N is a power of two >= 2^radix_log2, and for a team size
/// outside [1, codelet::Team::kMaxWorkers].
void fft_host(std::span<cplx> data, Variant variant, const PaperFftOptions& opts);

std::string to_string(Variant v);

}  // namespace c64fft::fft
