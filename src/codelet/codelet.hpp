#pragma once
// Core codelet-model vocabulary (Section III-C of the paper).
//
// A codelet is a non-preemptive unit of work identified here by a
// (stage, index) pair. Its firing rule is dataflow-like: it becomes ready
// when its dependency counter reaches the expected number of completed
// producers. Ready codelets sit in a shared pool from which worker threads
// (or simulated thread units) pop work; the pop order is *free*, which is
// exactly the degree of freedom the paper exploits to balance memory-bank
// load.

#include <cstdint>
#include <functional>

namespace c64fft::codelet {

struct CodeletKey {
  std::uint32_t stage = 0;
  std::uint64_t index = 0;

  friend bool operator==(const CodeletKey&, const CodeletKey&) = default;
  friend auto operator<=>(const CodeletKey&, const CodeletKey&) = default;
};

struct CodeletKeyHash {
  std::size_t operator()(const CodeletKey& k) const noexcept {
    // SplitMix-style mix of the two fields.
    std::uint64_t z = (static_cast<std::uint64_t>(k.stage) << 48) ^ k.index;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return static_cast<std::size_t>(z ^ (z >> 31));
  }
};

/// Pop-order policy of a ready-codelet pool: the order the host runtime's
/// injection queue hands out phase seeds (enabled children always go to
/// the enabling worker's own deque). The paper's "fine best" and "fine
/// worst" are realised by the combination of the initial seed order and
/// this policy on the fft_host harness's strict single pool (see
/// fft::FineOrdering and fft::run_phase_sequential).
enum class PoolPolicy {
  kLifo,  ///< stack: newly enabled codelets run first (depth-first-ish)
  kFifo,  ///< queue: enabling order preserved (breadth-first-ish)
};

}  // namespace c64fft::codelet
