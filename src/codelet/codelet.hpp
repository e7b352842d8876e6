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

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>

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

/// Pop-order policy of a ready-codelet pool: the order the fft_host
/// harness's shared pool (fft::run_pool_phase) hands out ready codelets.
/// Push appends; kLifo pops the newest entry, kFifo the oldest. On a
/// one-worker team that is the paper's strict single-pool order, and the
/// paper's "fine best" and "fine worst" are realised by the combination
/// of the initial seed order and this policy (see fft::FineOrdering). On
/// more workers the pops interleave freely, which the static race check
/// proves safe.
enum class PoolPolicy {
  kLifo,  ///< stack: newly enabled codelets run first (depth-first-ish)
  kFifo,  ///< queue: enabling order preserved (breadth-first-ish)
};

/// Handed to a codelet body so it can enable children.
class Pusher {
 public:
  virtual ~Pusher() = default;
  virtual void push(CodeletKey ready) = 0;
  /// Enable a whole sibling group with one push (one wake signal instead
  /// of one per child). Order within the batch is preserved.
  virtual void push_batch(std::span<const CodeletKey> batch) = 0;
};

/// Codelet body: execute the codelet, then enable any children that became
/// ready (typically after DependencyCounters::arrive returns true).
using CodeletBody = std::function<void(CodeletKey, unsigned worker, Pusher&)>;

}  // namespace c64fft::codelet
