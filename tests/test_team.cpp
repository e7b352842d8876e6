// codelet::Team, the flat worker team every threaded phase runs on: the
// size checks, exactly-once claims on 1, 2 and 4 workers, worker ids, the
// barrier at the end of a call, exception propagation, the phase hook and
// many calls on one persistent team (run under TSan by scripts/check.sh).

#include "codelet/team.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <climits>
#include <stdexcept>
#include <vector>

namespace c64fft::codelet {
namespace {

TEST(Team, RejectsZeroWorkers) {
  EXPECT_THROW(Team(0), std::invalid_argument);
}

TEST(Team, RejectsMoreThanMaxWorkersBeforeSpawning) {
  const std::uint64_t before = Team::teams_created();
  EXPECT_THROW(Team(Team::kMaxWorkers + 1), std::invalid_argument);
  EXPECT_THROW(Team(UINT_MAX), std::invalid_argument);
  EXPECT_EQ(Team::teams_created(), before);
}

TEST(Team, EmptyCallRunsNothing) {
  for (const unsigned workers : {1u, 2u}) {
    Team team(workers);
    std::uint64_t phases = 0;
    team.set_phase_hook([&](const PhaseStats& ps) {
      ++phases;
      EXPECT_EQ(ps.seeds, 0u);
      EXPECT_EQ(ps.executed, 0u);
    });
    team.parallel_for(0, [](std::uint64_t, unsigned) {
      FAIL() << "no index should run";
    });
    EXPECT_EQ(phases, 1u) << workers;
  }
}

TEST(Team, RunsEveryIndexExactlyOnce) {
  constexpr std::uint64_t kCount = 1000;
  for (const unsigned workers : {1u, 2u, 4u}) {
    Team team(workers);
    std::vector<std::atomic<int>> hits(kCount);
    PhaseStats last;
    team.set_phase_hook([&](const PhaseStats& ps) { last = ps; });
    team.parallel_for(kCount, [&](std::uint64_t i, unsigned) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::uint64_t i = 0; i < kCount; ++i)
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " workers=" << workers;
    EXPECT_EQ(last.seeds, kCount);
    EXPECT_EQ(last.executed, kCount);
  }
}

TEST(Team, WorkerIdsInRange) {
  for (const unsigned workers : {1u, 3u}) {
    Team team(workers);
    std::atomic<bool> ok{true};
    team.parallel_for(200, [&](std::uint64_t, unsigned w) {
      if (w >= workers) ok.store(false);
    });
    EXPECT_TRUE(ok.load()) << workers;
  }
}

TEST(Team, CallIsABarrier) {
  Team team(4);
  std::atomic<int> first{0};
  team.parallel_for(64, [&](std::uint64_t, unsigned) { first.fetch_add(1); });
  // When parallel_for returns, every index of the call has finished.
  EXPECT_EQ(first.load(), 64);
  team.parallel_for(64, [&](std::uint64_t, unsigned) {
    EXPECT_EQ(first.load(), 64);
  });
}

TEST(Team, ExceptionPropagatesAndTeamKeepsWorking) {
  for (const unsigned workers : {1u, 2u, 4u}) {
    Team team(workers);
    PhaseStats last;
    team.set_phase_hook([&](const PhaseStats& ps) { last = ps; });
    EXPECT_THROW(team.parallel_for(64,
                                   [](std::uint64_t i, unsigned) {
                                     if (i == 13)
                                       throw std::runtime_error("index 13");
                                   }),
                 std::runtime_error);
    // The hook saw the failed call, with the throwing index not executed.
    EXPECT_EQ(last.seeds, 64u);
    EXPECT_LT(last.executed, 64u);
    if (workers == 1) {
      EXPECT_EQ(last.executed, 13u);
    }

    std::atomic<int> ran{0};
    team.parallel_for(64, [&](std::uint64_t, unsigned) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 64) << workers;
    EXPECT_EQ(last.executed, 64u);
  }
}

TEST(Team, ManyCallsOnOnePersistentTeam) {
  const std::uint64_t before = Team::teams_created();
  Team team(4);
  std::atomic<std::uint64_t> bodies{0};
  for (int call = 0; call < 200; ++call)
    team.parallel_for(4, [&](std::uint64_t, unsigned) {
      bodies.fetch_add(1, std::memory_order_relaxed);
    });
  EXPECT_EQ(bodies.load(), 200u * 4u);
  EXPECT_EQ(Team::teams_created(), before + 1);
}

TEST(Team, CountBeyondTheClaimWordThrows) {
  Team team(2);
  EXPECT_THROW(team.parallel_for(std::uint64_t{1} << 31,
                                 [](std::uint64_t, unsigned) {
                                   FAIL() << "no index should run";
                                 }),
               std::length_error);
}

}  // namespace
}  // namespace c64fft::codelet
