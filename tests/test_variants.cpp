// The heart of the functional claims: every scheduling variant — coarse,
// fine (all orderings), guided, with either twiddle layout and any worker
// count — computes exactly the same FFT as the serial reference, and byte
// for byte the same output as the production executor. This is the
// "well-behaved CDGs are determinate" property of Section III-C3. The
// harness's shared ready pool (run_pool_phase) is pinned here too: every
// codelet exactly once on any team, strict single-pool order on one
// worker, and the race proof that licenses any pop order.

#include "fft/variants.hpp"

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "analysis/model.hpp"
#include "analysis/race.hpp"
#include "codelet/dep_counter.hpp"
#include "fft/executor.hpp"
#include "fft/reference.hpp"
#include "util/prng.hpp"

namespace c64fft::fft {
namespace {

std::vector<cplx> random_signal(std::uint64_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<cplx> v(n);
  for (auto& x : v) x = cplx(rng.next_double() * 2 - 1, rng.next_double() * 2 - 1);
  return v;
}

void expect_matches_reference(std::uint64_t n, Variant variant,
                              const PaperFftOptions& opts) {
  auto data = random_signal(n, n ^ 0x5EED);
  auto want = data;
  fft_serial_inplace(want);
  fft_host(data, variant, opts);
  // Same butterfly order within each task => bit-identical to the
  // stagewise kernel; vs the plain serial FFT only rounding-level
  // differences are possible.
  ASSERT_LT(max_abs_error(data, want), 1e-8)
      << to_string(variant) << " n=" << n << " workers=" << opts.workers;
}

class VariantCorrectness
    : public ::testing::TestWithParam<std::tuple<Variant, unsigned, std::uint64_t>> {};

TEST_P(VariantCorrectness, MatchesSerialReference) {
  const auto [variant, workers, n] = GetParam();
  PaperFftOptions opts;
  opts.workers = workers;
  expect_matches_reference(n, variant, opts);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, VariantCorrectness,
    ::testing::Combine(
        ::testing::Values(Variant::kCoarse, Variant::kFine, Variant::kGuided),
        ::testing::Values(1u, 4u),
        ::testing::Values(std::uint64_t{64}, std::uint64_t{1} << 12,
                          std::uint64_t{1} << 13, std::uint64_t{1} << 15)),
    [](const auto& info) {
      return to_string(std::get<0>(info.param)) + "_w" +
             std::to_string(std::get<1>(info.param)) + "_n" +
             std::to_string(std::get<2>(info.param));
    });

TEST(Variants, HashedTwiddlesMatchReference) {
  for (Variant v : {Variant::kCoarse, Variant::kFine}) {
    PaperFftOptions opts;
    opts.workers = 3;
    opts.layout = TwiddleLayout::kBitReversed;
    expect_matches_reference(1ULL << 13, v, opts);
  }
}

TEST(Variants, AllFineOrderingsAgreeBitExactly) {
  // Determinacy: the result must not depend on the execution order.
  const std::uint64_t n = 1ULL << 12;
  const auto input = random_signal(n, 99);
  std::vector<cplx> first;
  for (const auto& ordering : ordering_sweep()) {
    auto data = input;
    PaperFftOptions opts;
    opts.workers = 4;
    opts.ordering = ordering;
    fft_host(data, Variant::kFine, opts);
    if (first.empty()) {
      first = data;
    } else {
      ASSERT_EQ(max_abs_error(data, first), 0.0) << to_string(ordering);
    }
  }
}

TEST(Variants, RepeatedRunsAreBitIdentical) {
  // With real threads racing on the pool, outputs must still be
  // deterministic (each element has a unique writer per stage).
  const std::uint64_t n = 1ULL << 13;
  const auto input = random_signal(n, 123);
  PaperFftOptions opts;
  opts.workers = 4;
  std::vector<cplx> first;
  for (int run = 0; run < 3; ++run) {
    auto data = input;
    fft_host(data, Variant::kFine, opts);
    if (first.empty()) first = data;
    else ASSERT_EQ(max_abs_error(data, first), 0.0) << run;
  }
}

TEST(Variants, SmallerRadixAndPartialStages) {
  PaperFftOptions opts;
  opts.workers = 2;
  opts.radix_log2 = 3;
  expect_matches_reference(1ULL << 10, Variant::kGuided, opts);  // 4 stages: 3+1 partial
  expect_matches_reference(1ULL << 9, Variant::kFine, opts);
  opts.radix_log2 = 6;
  expect_matches_reference(1ULL << 8, Variant::kFine, opts);  // cpt > R^{s-1} edge
  expect_matches_reference(1ULL << 8, Variant::kGuided, opts);  // degenerate guided
}

TEST(Variants, GuidedMinimumThreeStagePath) {
  // A radix that yields Alg. 3's minimum stage count: 3 stages runs
  // phase 1 with last_early = 0.
  PaperFftOptions opts;
  opts.workers = 4;
  opts.radix_log2 = 4;
  expect_matches_reference(1ULL << 12, Variant::kGuided, opts);  // exactly 3 full stages
  expect_matches_reference(1ULL << 13, Variant::kGuided, opts);  // 3 full + 1 partial
}

TEST(Variants, InvalidSizesThrow) {
  PaperFftOptions opts;
  std::vector<cplx> one(1);  // any N >= 2 is valid now; N < 2 never is
  EXPECT_THROW(fft_host(one, Variant::kFine, opts), std::invalid_argument);
  std::vector<cplx> small(16);  // pow2 smaller than radix 64: strict path
  EXPECT_THROW(fft_host(small, Variant::kFine, opts), std::invalid_argument);
  std::vector<cplx> composite(96);  // the harness is radix-2^r only
  EXPECT_THROW(fft_host(composite, Variant::kFine, opts), std::invalid_argument);
}

std::uint64_t fan_out_total(std::uint32_t depth) {
  return (std::uint64_t{1} << (depth + 1)) - 1;
}

TEST(Variants, SequentialPoolRunsEverythingOnWorkerZero) {
  // One seed, binary fan-out to depth 6 on a one-worker team: every
  // codelet runs, each as worker 0, on the calling thread.
  constexpr std::uint32_t kDepth = 6;
  std::uint64_t bodies = 0;
  std::uint64_t off_worker_zero = 0;
  const std::vector<codelet::CodeletKey> seeds{{0, 0}};
  codelet::Team team(1);
  run_pool_phase(
      team, seeds, codelet::PoolPolicy::kLifo,
      [&](codelet::CodeletKey c, unsigned worker, codelet::Pusher& push) {
        ++bodies;
        if (worker != 0) ++off_worker_zero;
        if (c.stage < kDepth) {
          const codelet::CodeletKey kids[2] = {{c.stage + 1, c.index * 2},
                                               {c.stage + 1, c.index * 2 + 1}};
          push.push_batch(kids);
        }
      });
  EXPECT_EQ(bodies, fan_out_total(kDepth));
  EXPECT_EQ(off_worker_zero, 0u);
}

TEST(Variants, SequentialPoolIsDeterministic) {
  codelet::Team team(1);
  auto record_run = [&team](codelet::PoolPolicy policy) {
    std::vector<codelet::CodeletKey> order;
    const std::vector<codelet::CodeletKey> seeds{{0, 0}, {0, 1}, {0, 2}};
    run_pool_phase(team, seeds, policy,
                   [&order](codelet::CodeletKey c, unsigned worker,
                            codelet::Pusher& push) {
                     EXPECT_EQ(worker, 0u);
                     order.push_back(c);
                     if (c.stage == 0) push.push({1, c.index});
                   });
    return order;
  };
  const auto lifo_a = record_run(codelet::PoolPolicy::kLifo);
  const auto lifo_b = record_run(codelet::PoolPolicy::kLifo);
  ASSERT_EQ(lifo_a.size(), 6u);
  EXPECT_EQ(lifo_a, lifo_b);
  // Strict single-pool LIFO: last seed first, each child runs immediately
  // after its parent (it is the newest entry).
  const std::vector<codelet::CodeletKey> want_lifo{{0, 2}, {1, 2}, {0, 1},
                                                   {1, 1}, {0, 0}, {1, 0}};
  EXPECT_EQ(lifo_a, want_lifo);

  // Strict FIFO: seeds in order, then the children in push order.
  const auto fifo = record_run(codelet::PoolPolicy::kFifo);
  const std::vector<codelet::CodeletKey> want_fifo{{0, 0}, {0, 1}, {0, 2},
                                                   {1, 0}, {1, 1}, {1, 2}};
  EXPECT_EQ(fifo, want_fifo);
}

TEST(Variants, PoolRunsFanOutExactlyOnce) {
  // One seed, binary fan-out to depth 6 (127 codelets): every codelet
  // runs exactly once whoever pops it.
  constexpr std::uint32_t kDepth = 6;
  for (const unsigned workers : {1u, 3u, 4u}) {
    codelet::Team team(workers);
    std::vector<std::atomic<int>> hits(fan_out_total(kDepth));
    const std::vector<codelet::CodeletKey> seeds{{0, 0}};
    run_pool_phase(
        team, seeds, codelet::PoolPolicy::kLifo,
        [&](codelet::CodeletKey c, unsigned, codelet::Pusher& push) {
          // Heap numbering of the binary tree: node (stage, index).
          hits[(std::uint64_t{1} << c.stage) - 1 + c.index].fetch_add(1);
          if (c.stage < kDepth) {
            push.push({c.stage + 1, c.index * 2});
            push.push({c.stage + 1, c.index * 2 + 1});
          }
        });
    for (std::size_t i = 0; i < hits.size(); ++i)
      ASSERT_EQ(hits[i].load(), 1) << "node " << i << " workers=" << workers;
  }
}

TEST(Variants, PoolCounterGatedDataflowRunsAllStages) {
  // 8 producers -> one shared counter -> 8 consumers, with real threads.
  for (const unsigned workers : {1u, 3u, 4u}) {
    codelet::Team team(workers);
    const std::array<std::uint64_t, 2> groups{0, 1};
    const std::array<std::uint32_t, 2> thresholds{1, 8};
    codelet::DependencyCounters counters(groups, thresholds);
    std::atomic<int> produced{0}, consumed{0};
    std::vector<codelet::CodeletKey> seeds;
    for (std::uint64_t i = 0; i < 8; ++i) seeds.push_back({0, i});
    run_pool_phase(
        team, seeds, codelet::PoolPolicy::kFifo,
        [&](codelet::CodeletKey c, unsigned, codelet::Pusher& push) {
          if (c.stage == 0) {
            produced.fetch_add(1);
            if (counters.arrive(1, 0))
              for (std::uint64_t i = 0; i < 8; ++i) push.push({1, i});
          } else {
            // Dataflow firing rule: consumers observe every producer done.
            EXPECT_EQ(produced.load(), 8);
            consumed.fetch_add(1);
          }
        });
    EXPECT_EQ(produced.load(), 8) << workers;
    EXPECT_EQ(consumed.load(), 8) << workers;
  }
}

TEST(Variants, PoolExceptionPropagates) {
  for (const unsigned workers : {1u, 4u}) {
    codelet::Team team(workers);
    std::vector<codelet::CodeletKey> seeds;
    for (std::uint64_t i = 0; i < 64; ++i) seeds.push_back({0, i});
    EXPECT_THROW(run_pool_phase(team, seeds, codelet::PoolPolicy::kFifo,
                                [](codelet::CodeletKey c, unsigned,
                                   codelet::Pusher&) {
                                  if (c.index == 13)
                                    throw std::runtime_error("codelet 13");
                                }),
                 std::runtime_error);
    // The team keeps working after a failed phase.
    std::atomic<int> ran{0};
    run_pool_phase(team, seeds, codelet::PoolPolicy::kFifo,
                   [&](codelet::CodeletKey, unsigned, codelet::Pusher&) {
                     ran.fetch_add(1);
                   });
    EXPECT_EQ(ran.load(), 64) << workers;
  }
}

// The license for a free pop order: the static analyzer proves the
// fine-grain schedule race-free for ANY pop order (codelets ordered only
// by the counter DAG), so workers interleaving their pops cannot change
// the result. Verify both halves: the proof holds, and 4-worker output is
// bit-identical to the strict paper order of a one-worker team.
TEST(Variants, AnyPopOrderProofLicensesThePool) {
  const std::uint64_t n = 1 << 12;
  const FftPlan plan(n, 6);
  const auto model = analysis::build_model(plan, TwiddleLayout::kLinear,
                                           analysis::Schedule::kCounters);
  const auto races = analysis::detect_races(model);
  ASSERT_EQ(races.status, "pass") << races.note;

  const auto input = random_signal(n, 99);
  PaperFftOptions one;
  one.workers = 1;
  auto want = input;
  fft_host(want, Variant::kFine, one);

  PaperFftOptions four;
  four.workers = 4;
  for (int run = 0; run < 3; ++run) {
    auto got = input;
    fft_host(got, Variant::kFine, four);
    ASSERT_EQ(std::memcmp(got.data(), want.data(), n * sizeof(cplx)), 0)
        << "run " << run;
  }
}

TEST(Variants, HarnessMatchesExecutorBitExactly) {
  // One oracle between the reproduction harness and production: every
  // paper configuration, at harness radices 4 and 6, must produce exactly
  // the bytes FftExecutor::forward produces with its radix-free
  // whole-transform sweep, at every worker count (one worker being the
  // strict paper pool order).
  struct Shape {
    std::uint64_t n;
    unsigned radix_log2;
  };
  const Shape shapes[] = {
      {1u << 8, 6},   // 2 stages: guided degenerates to fine
      {1u << 12, 4},  // exactly 3 stages: Alg. 3's minimum
      {1u << 13, 6},  // 3 stages, the last one partial
      {1u << 13, 4},  // 3 full stages + 1 partial: guided phase 1 propagates
  };
  FftExecutor ex;
  for (const Shape& shape : shapes) {
    const auto input = random_signal(shape.n, shape.n + shape.radix_log2);
    for (unsigned workers : {1u, 3u}) {
      auto want = input;
      ex.forward(want, HostFftOptions{workers});
      for (Variant variant : {Variant::kCoarse, Variant::kFine, Variant::kGuided})
        for (TwiddleLayout layout : {TwiddleLayout::kLinear, TwiddleLayout::kBitReversed})
          for (const FineOrdering& ordering : ordering_sweep()) {
            const PaperFftOptions opts{workers, shape.radix_log2, layout,
                                       ordering};
            auto got = input;
            fft_host(got, variant, opts);
            ASSERT_EQ(std::memcmp(got.data(), want.data(),
                                  got.size() * sizeof(cplx)),
                      0)
                << to_string(variant) << " n=" << shape.n << " r=" << shape.radix_log2
                << " workers=" << workers << " layout=" << static_cast<int>(layout)
                << " ordering=" << to_string(ordering);
          }
    }
  }
}

}  // namespace
}  // namespace c64fft::fft
