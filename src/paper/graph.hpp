#pragma once
// Explicit codelet-graph (CDG) representation, Section III-C3.
//
// The production FFT variants never materialise their CDG — dependencies
// live implicitly in the index algebra plus shared counters. This class
// exists to (a) validate that algebra for small sizes by brute force,
// (b) check well-behavedness (acyclicity => deterministic results), and
// (c) let tests replay arbitrary firing orders and verify that every
// codelet fires exactly once regardless of order.

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "paper/codelet.hpp"

namespace c64fft::codelet {

class CodeletGraph {
 public:
  /// Returns the dense node id for `key`, inserting it if new.
  std::uint32_t add_node(CodeletKey key);

  /// Declares `consumer` depends on `producer` (producer -> consumer edge).
  /// Both nodes are inserted on demand. Parallel edges are kept: a codelet
  /// that consumes two outputs of the same producer waits for it twice,
  /// matching counter semantics.
  void add_edge(CodeletKey producer, CodeletKey consumer);

  std::size_t node_count() const noexcept { return keys_.size(); }
  std::size_t edge_count() const noexcept { return edges_; }

  const CodeletKey& key_of(std::uint32_t node) const { return keys_.at(node); }
  bool contains(CodeletKey key) const { return ids_.count(key) != 0; }

  /// Dense node id of `key` (throws std::out_of_range if absent).
  std::uint32_t id_of(CodeletKey key) const;
  /// Successor / predecessor node ids of dense node `node`, with
  /// multiplicity — the raw adjacency used by static analyses that build
  /// reachability over dense ids instead of keys.
  const std::vector<std::uint32_t>& successors(std::uint32_t node) const {
    return succ_.at(node);
  }
  const std::vector<std::uint32_t>& predecessors(std::uint32_t node) const {
    return pred_.at(node);
  }

  /// Number of inbound dependency tokens of a node.
  std::uint32_t in_degree(CodeletKey key) const;
  /// Direct consumers of a node (with multiplicity).
  std::vector<CodeletKey> children(CodeletKey key) const;
  /// Direct producers of a node (with multiplicity).
  std::vector<CodeletKey> parents(CodeletKey key) const;

  /// True iff the graph is acyclic ("well-behaved": a well-behaved CDG
  /// computes deterministic outputs, paper Section III-C3).
  bool is_well_behaved() const;

  /// One topological order (throws std::logic_error on a cycle).
  std::vector<CodeletKey> topological_order() const;

  /// Dataflow firing simulation: start from all zero-in-degree nodes, pop
  /// per `policy`, fire, release tokens. Returns the firing order. Throws
  /// std::logic_error if not every node fires (cycle / malformed graph).
  std::vector<CodeletKey> simulate_firing(PoolPolicy policy) const;

 private:
  std::unordered_map<CodeletKey, std::uint32_t, CodeletKeyHash> ids_;
  std::vector<CodeletKey> keys_;
  std::vector<std::vector<std::uint32_t>> succ_;
  std::vector<std::vector<std::uint32_t>> pred_;
  std::size_t edges_ = 0;
};

}  // namespace c64fft::codelet
