// Work-stealing HostRuntime behavior: forced steals under skewed seeding,
// balance accounting, exception capture, and the bridge to the static
// analyzer — the race-freedom proof over "any pop order" is exactly what
// licenses letting thieves reorder execution (checked against the
// fft_host harness's paper-order sequential pool).

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "analysis/model.hpp"
#include "analysis/race.hpp"
#include "codelet/host_runtime.hpp"
#include "fft/reference.hpp"
#include "fft/variants.hpp"
#include "util/prng.hpp"

namespace c64fft {
namespace {

using codelet::CodeletKey;
using codelet::HostRuntime;
using codelet::PoolPolicy;

// A few microseconds of un-optimizable work, so codelets are long enough
// for parked thieves to wake and find the victim's deque non-empty.
void spin_work() {
  volatile double sink = 1.0;
  for (int i = 0; i < 400; ++i) sink = sink * 1.0000001 + 1e-9;
}

std::uint64_t fan_out_total(std::uint32_t depth) {
  return (std::uint64_t{1} << (depth + 1)) - 1;
}

// One seed, binary fan-out: all work originates in one worker's deque, so
// any codelet executed by another worker got there by stealing.
codelet::CodeletBody fan_out_body(std::uint32_t depth) {
  return [depth](CodeletKey c, unsigned, codelet::Pusher& push) {
    spin_work();
    if (c.stage < depth) {
      const CodeletKey kids[2] = {{c.stage + 1, c.index * 2},
                                  {c.stage + 1, c.index * 2 + 1}};
      push.push_batch(kids);
    }
  };
}

TEST(WsRuntime, SkewedSeedingForcesSteals) {
  constexpr std::uint32_t kDepth = 10;
  HostRuntime rt(4);
  const std::vector<CodeletKey> seeds{{0, 0}};
  // Stealing is probabilistic under OS scheduling; a handful of phases is
  // overwhelmingly enough for at least one steal to land.
  std::uint64_t phases = 0;
  while (rt.steals() == 0 && phases < 50) {
    rt.run_phase(seeds, PoolPolicy::kLifo, fan_out_body(kDepth));
    ++phases;
  }
  EXPECT_GT(rt.steals(), 0u) << "no steal landed in " << phases << " phases";
  EXPECT_EQ(rt.executed(), phases * fan_out_total(kDepth));
}

TEST(WsRuntime, BalanceAccountingSumsToExecutedUnderStealing) {
  constexpr std::uint32_t kDepth = 11;
  HostRuntime rt(4);
  const std::vector<CodeletKey> seeds{{0, 0}};
  for (int phase = 0; phase < 5; ++phase)
    rt.run_phase(seeds, PoolPolicy::kLifo, fan_out_body(kDepth));

  const auto& per_worker = rt.executed_per_worker();
  ASSERT_EQ(per_worker.size(), rt.workers());
  std::uint64_t sum = 0;
  for (std::uint64_t c : per_worker) sum += c;
  EXPECT_EQ(sum, rt.executed());
  EXPECT_EQ(rt.executed(), 5 * fan_out_total(kDepth));
  EXPECT_GE(rt.balance_ratio(), 1.0);
  // max <= n * mean always; equality only if one worker did everything
  // while others show nonzero — i.e. the ratio is a valid max/mean.
  EXPECT_LE(rt.balance_ratio(), static_cast<double>(rt.workers()));
}

TEST(WsRuntime, ExceptionPropagatesAndTeamSurvives) {
  HostRuntime rt(4);
  std::vector<CodeletKey> seeds;
  for (std::uint64_t i = 0; i < 64; ++i) seeds.push_back({0, i});
  auto throwing = [](CodeletKey c, unsigned, codelet::Pusher&) {
    spin_work();
    if (c.index == 13) throw std::runtime_error("codelet 13 failed");
  };
  EXPECT_THROW(
      rt.run_phase(seeds, PoolPolicy::kFifo, throwing), std::runtime_error);

  // The persistent team must remain usable after a failed phase.
  const std::uint64_t before = rt.executed();
  rt.run_phase(seeds, PoolPolicy::kFifo,
               [](CodeletKey, unsigned, codelet::Pusher&) { spin_work(); });
  EXPECT_EQ(rt.executed(), before + seeds.size());
}

TEST(WsRuntime, ManyPhasesOnOnePersistentTeam) {
  HostRuntime rt(4);
  std::atomic<std::uint64_t> bodies{0};
  const std::vector<CodeletKey> seeds{{0, 0}, {0, 1}, {0, 2}, {0, 3}};
  for (int phase = 0; phase < 200; ++phase)
    rt.run_phase(seeds, PoolPolicy::kLifo,
                 [&bodies](CodeletKey, unsigned, codelet::Pusher&) {
                   bodies.fetch_add(1, std::memory_order_relaxed);
                 });
  EXPECT_EQ(bodies.load(), 200u * 4u);
  EXPECT_EQ(rt.executed(), 200u * 4u);
}

TEST(WsRuntime, EmptyPhaseIsANoOp) {
  HostRuntime rt(2);
  rt.run_phase({}, PoolPolicy::kLifo,
               [](CodeletKey, unsigned, codelet::Pusher&) { FAIL(); });
  EXPECT_EQ(rt.executed(), 0u);
}

// The license for stealing: the static analyzer proves the fine-grain
// schedule race-free for ANY pop order (codelets ordered only by the
// counter DAG), so a thief reordering execution cannot change the result.
// Verify both halves: the proof holds, and the work-stealing runtime's
// output is bit-identical to the strict paper-order sequential mode.
TEST(WsRuntime, AnyPopOrderProofLicensesStealing) {
  const std::uint64_t n = 1 << 12;
  const fft::FftPlan plan(n, 6);
  const auto model = analysis::build_model(plan, fft::TwiddleLayout::kLinear,
                                           analysis::Schedule::kCounters);
  const auto races = analysis::detect_races(model);
  ASSERT_EQ(races.status, "pass") << races.note;

  util::Xoshiro256 rng(99);
  std::vector<fft::cplx> input(n);
  for (auto& x : input)
    x = fft::cplx(rng.next_double() * 2 - 1, rng.next_double() * 2 - 1);

  fft::PaperFftOptions seq_opts;
  seq_opts.workers = 1;
  seq_opts.mode = fft::SchedulerMode::kSequential;
  auto want = input;
  fft::fft_host(want, fft::Variant::kFine, seq_opts);

  fft::PaperFftOptions ws_opts;
  ws_opts.workers = 4;  // default kWorkStealing
  for (int run = 0; run < 3; ++run) {
    auto got = input;
    fft::fft_host(got, fft::Variant::kFine, ws_opts);
    ASSERT_EQ(fft::max_abs_error(got, want), 0.0) << "run " << run;
  }
}

}  // namespace
}  // namespace c64fft
