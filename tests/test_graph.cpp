#include "paper/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

namespace c64fft::codelet {
namespace {

CodeletKey k(std::uint32_t s, std::uint64_t i) { return {s, i}; }

TEST(CodeletGraph, NodesAndEdges) {
  CodeletGraph g;
  g.add_edge(k(0, 0), k(1, 0));
  g.add_edge(k(0, 1), k(1, 0));
  EXPECT_EQ(g.node_count(), 3u);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_TRUE(g.contains(k(0, 1)));
  EXPECT_FALSE(g.contains(k(2, 0)));
  EXPECT_EQ(g.in_degree(k(1, 0)), 2u);
  EXPECT_EQ(g.in_degree(k(0, 0)), 0u);
}

TEST(CodeletGraph, ChildrenAndParents) {
  CodeletGraph g;
  g.add_edge(k(0, 0), k(1, 0));
  g.add_edge(k(0, 0), k(1, 1));
  const auto ch = g.children(k(0, 0));
  EXPECT_EQ(ch.size(), 2u);
  const auto pa = g.parents(k(1, 1));
  ASSERT_EQ(pa.size(), 1u);
  EXPECT_EQ(pa[0], k(0, 0));
  EXPECT_THROW(g.children(k(9, 9)), std::out_of_range);
}

TEST(CodeletGraph, ParallelEdgesKeepMultiplicity) {
  // A consumer waiting for two outputs of one producer holds two tokens.
  CodeletGraph g;
  g.add_edge(k(0, 0), k(1, 0));
  g.add_edge(k(0, 0), k(1, 0));
  EXPECT_EQ(g.in_degree(k(1, 0)), 2u);
  EXPECT_EQ(g.edge_count(), 2u);
}

TEST(CodeletGraph, WellBehavedDag) {
  CodeletGraph g;
  g.add_edge(k(0, 0), k(1, 0));
  g.add_edge(k(1, 0), k(2, 0));
  g.add_edge(k(0, 1), k(2, 0));
  EXPECT_TRUE(g.is_well_behaved());
  const auto order = g.topological_order();
  EXPECT_EQ(order.size(), 4u);
  auto pos = [&](CodeletKey key) {
    return std::find(order.begin(), order.end(), key) - order.begin();
  };
  EXPECT_LT(pos(k(0, 0)), pos(k(1, 0)));
  EXPECT_LT(pos(k(1, 0)), pos(k(2, 0)));
  EXPECT_LT(pos(k(0, 1)), pos(k(2, 0)));
}

TEST(CodeletGraph, CycleDetected) {
  CodeletGraph g;
  g.add_edge(k(0, 0), k(0, 1));
  g.add_edge(k(0, 1), k(0, 2));
  g.add_edge(k(0, 2), k(0, 0));
  EXPECT_FALSE(g.is_well_behaved());
  EXPECT_THROW(g.topological_order(), std::logic_error);
  EXPECT_THROW(g.simulate_firing(PoolPolicy::kFifo), std::logic_error);
}

TEST(CodeletGraph, FiringCoversAllNodesBothPolicies) {
  CodeletGraph g;
  // Diamond plus a tail.
  g.add_edge(k(0, 0), k(1, 0));
  g.add_edge(k(0, 0), k(1, 1));
  g.add_edge(k(1, 0), k(2, 0));
  g.add_edge(k(1, 1), k(2, 0));
  g.add_edge(k(2, 0), k(3, 0));
  for (auto policy : {PoolPolicy::kFifo, PoolPolicy::kLifo}) {
    const auto fired = g.simulate_firing(policy);
    EXPECT_EQ(fired.size(), g.node_count());
    const std::set<CodeletKey> unique(fired.begin(), fired.end());
    EXPECT_EQ(unique.size(), fired.size());
    // Every firing respects dependencies.
    auto pos = [&](CodeletKey key) {
      return std::find(fired.begin(), fired.end(), key) - fired.begin();
    };
    EXPECT_LT(pos(k(0, 0)), pos(k(1, 0)));
    EXPECT_LT(pos(k(1, 1)), pos(k(2, 0)));
    EXPECT_LT(pos(k(2, 0)), pos(k(3, 0)));
  }
}

TEST(CodeletGraph, LifoAndFifoGiveDifferentOrders) {
  CodeletGraph g;
  // Two independent chains; LIFO dives into the most recent, FIFO
  // alternates.
  g.add_node(k(0, 0));
  g.add_node(k(0, 1));
  g.add_edge(k(0, 1), k(1, 1));
  const auto fifo = g.simulate_firing(PoolPolicy::kFifo);
  const auto lifo = g.simulate_firing(PoolPolicy::kLifo);
  EXPECT_EQ(fifo.size(), lifo.size());
  EXPECT_NE(fifo, lifo);  // [00,01,11] vs [01,11,00]
}

}  // namespace
}  // namespace c64fft::codelet
