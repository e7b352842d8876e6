// Brute-force cross-validation of the plan's dependency algebra: the
// ground-truth dependency is "task B of stage s+1 reads an element that
// task A of stage s wrote". We build that relation by element ownership
// and check parents_of / children_of / group_of / group_threshold /
// group_parents against it, for full-stage and partial-last-stage plans
// and several radices. This is the test that pins down Section IV-A2.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "paper/fft_plan.hpp"
#include "paper/graph.hpp"

namespace c64fft::fft {
namespace {

using TaskSet = std::set<std::uint64_t>;

// Owner task of every element in a stage.
std::vector<std::uint64_t> owners(const FftPlan& p, std::uint32_t s) {
  std::vector<std::uint64_t> own(p.size());
  for (std::uint64_t i = 0; i < p.tasks_per_stage(); ++i)
    for (std::uint64_t k = 0; k < p.radix(); ++k) own[p.element_index(s, i, k)] = i;
  return own;
}

// Ground-truth parent sets of stage s+1 tasks.
std::vector<TaskSet> true_parents(const FftPlan& p, std::uint32_t s) {
  const auto own_prev = owners(p, s);
  std::vector<TaskSet> parents(p.tasks_per_stage());
  for (std::uint64_t i = 0; i < p.tasks_per_stage(); ++i)
    for (std::uint64_t k = 0; k < p.radix(); ++k)
      parents[i].insert(own_prev[p.element_index(s + 1, i, k)]);
  return parents;
}

class PlanDepsTest : public ::testing::TestWithParam<std::pair<std::uint64_t, unsigned>> {};

TEST_P(PlanDepsTest, ParentsMatchElementOwnership) {
  const auto [n, r] = GetParam();
  const FftPlan p(n, r);
  std::vector<std::uint64_t> got;
  for (std::uint32_t s = 0; s + 1 < p.stage_count(); ++s) {
    const auto truth = true_parents(p, s);
    for (std::uint64_t l = 0; l < p.tasks_per_stage(); ++l) {
      p.parents_of(s + 1, l, got);
      const TaskSet got_set(got.begin(), got.end());
      ASSERT_EQ(got_set.size(), got.size()) << "duplicate parents, stage " << s + 1;
      ASSERT_EQ(got_set, truth[l]) << "stage " << s + 1 << " task " << l;
    }
  }
}

TEST_P(PlanDepsTest, ThresholdEqualsDistinctParentCount) {
  const auto [n, r] = GetParam();
  const FftPlan p(n, r);
  for (std::uint32_t s = 1; s < p.stage_count(); ++s) {
    const auto truth = true_parents(p, s - 1);
    for (std::uint64_t l = 0; l < p.tasks_per_stage(); ++l)
      ASSERT_EQ(p.group_threshold(s), truth[l].size()) << s << " " << l;
  }
}

TEST_P(PlanDepsTest, ChildrenAreInverseOfParents) {
  const auto [n, r] = GetParam();
  const FftPlan p(n, r);
  std::vector<std::uint64_t> buf;
  for (std::uint32_t s = 0; s + 1 < p.stage_count(); ++s) {
    // children_of(s, i) == { l : i in parents_of(s+1, l) }
    std::map<std::uint64_t, TaskSet> inverse;
    for (std::uint64_t l = 0; l < p.tasks_per_stage(); ++l) {
      p.parents_of(s + 1, l, buf);
      for (std::uint64_t par : buf) inverse[par].insert(l);
    }
    for (std::uint64_t i = 0; i < p.tasks_per_stage(); ++i) {
      p.children_of(s, i, buf);
      ASSERT_EQ(TaskSet(buf.begin(), buf.end()), inverse[i]) << s << " " << i;
    }
  }
}

TEST_P(PlanDepsTest, GroupsPartitionStageAndShareParents) {
  const auto [n, r] = GetParam();
  const FftPlan p(n, r);
  std::vector<std::uint64_t> members, parents, ref_parents;
  for (std::uint32_t s = 1; s < p.stage_count(); ++s) {
    const std::uint64_t groups = p.groups_in_stage(s);
    ASSERT_EQ(groups * p.group_size(s), p.tasks_per_stage());
    std::vector<int> covered(p.tasks_per_stage(), 0);
    for (std::uint64_t g = 0; g < groups; ++g) {
      p.group_members(s, g, members);
      ASSERT_EQ(members.size(), p.group_size(s));
      for (std::uint64_t m : members) {
        ASSERT_EQ(p.group_of(s, m), g);
        ++covered[m];
      }
      // Every member has the same parent set == group_parents.
      p.group_parents(s, g, ref_parents);
      const TaskSet ref(ref_parents.begin(), ref_parents.end());
      ASSERT_EQ(ref.size(), p.group_threshold(s));
      for (std::uint64_t m : members) {
        p.parents_of(s, m, parents);
        ASSERT_EQ(TaskSet(parents.begin(), parents.end()), ref) << s << " " << m;
      }
    }
    for (std::uint64_t l = 0; l < p.tasks_per_stage(); ++l) ASSERT_EQ(covered[l], 1);
  }
}

TEST_P(PlanDepsTest, ChildGroupIsConsistent) {
  const auto [n, r] = GetParam();
  const FftPlan p(n, r);
  std::vector<std::uint64_t> children;
  for (std::uint32_t s = 0; s + 1 < p.stage_count(); ++s) {
    for (std::uint64_t i = 0; i < p.tasks_per_stage(); ++i) {
      const std::uint64_t g = p.child_group(s, i);
      p.children_of(s, i, children);
      for (std::uint64_t c : children) ASSERT_EQ(p.group_of(s + 1, c), g);
    }
  }
}

TEST_P(PlanDepsTest, CdgIsWellBehavedAndFiresCompletely) {
  const auto [n, r] = GetParam();
  const FftPlan p(n, r);
  codelet::CodeletGraph g;
  std::vector<std::uint64_t> parents;
  for (std::uint64_t i = 0; i < p.tasks_per_stage(); ++i)
    g.add_node({0, i});
  for (std::uint32_t s = 1; s < p.stage_count(); ++s)
    for (std::uint64_t l = 0; l < p.tasks_per_stage(); ++l) {
      p.parents_of(s, l, parents);
      for (std::uint64_t par : parents) g.add_edge({s - 1, par}, {s, l});
    }
  EXPECT_TRUE(g.is_well_behaved());
  EXPECT_EQ(g.node_count(), p.total_tasks());
  for (auto policy : {codelet::PoolPolicy::kFifo, codelet::PoolPolicy::kLifo}) {
    const auto fired = g.simulate_firing(policy);
    EXPECT_EQ(fired.size(), p.total_tasks());
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PlanDepsTest,
    ::testing::Values(
        std::pair<std::uint64_t, unsigned>{1ULL << 12, 6},  // two full stages
        std::pair<std::uint64_t, unsigned>{1ULL << 15, 6},  // partial last (3 lvls)
        std::pair<std::uint64_t, unsigned>{1ULL << 13, 6},  // partial last (1 lvl)
        std::pair<std::uint64_t, unsigned>{1ULL << 8, 6},   // cpt > R^{s-1} degenerate
        std::pair<std::uint64_t, unsigned>{1ULL << 9, 3},   // radix 8, full stages
        std::pair<std::uint64_t, unsigned>{1ULL << 10, 3},  // radix 8, partial
        std::pair<std::uint64_t, unsigned>{1ULL << 6, 2},   // radix 4
        std::pair<std::uint64_t, unsigned>{1ULL << 7, 2},   // radix 4, partial
        std::pair<std::uint64_t, unsigned>{1ULL << 8, 1},   // radix 2 (EARTH-like)
        std::pair<std::uint64_t, unsigned>{1ULL << 14, 7}), // radix 128
    [](const auto& info) {
      std::string name = "N";
      name += std::to_string(info.param.first);
      name += "_r";
      name += std::to_string(info.param.second);
      return name;
    });

}  // namespace
}  // namespace c64fft::fft
