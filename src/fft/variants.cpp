#include "fft/variants.hpp"

#include <algorithm>
#include <deque>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "codelet/dep_counter.hpp"
#include "fft/executor.hpp"
#include "fft/kernel.hpp"
#include "fft/plan.hpp"
#include "util/bit_ops.hpp"

namespace c64fft::fft {

using codelet::CodeletKey;
using codelet::PoolPolicy;

std::uint64_t run_phase_sequential(std::span<const CodeletKey> seeds,
                                   PoolPolicy policy,
                                   const codelet::CodeletBody& body) {
  // Exact single mutex-pool semantics on one thread: push appends, pop
  // follows the policy. Deterministic by construction.
  struct SeqPusher final : codelet::Pusher {
    std::deque<CodeletKey> pool;
    void push(CodeletKey ready) override { pool.push_back(ready); }
  } pusher;
  pusher.pool.assign(seeds.begin(), seeds.end());
  std::uint64_t executed = 0;
  while (!pusher.pool.empty()) {
    CodeletKey key;
    if (policy == PoolPolicy::kLifo) {
      key = pusher.pool.back();
      pusher.pool.pop_back();
    } else {
      key = pusher.pool.front();
      pusher.pool.pop_front();
    }
    body(key, 0, pusher);
    ++executed;
  }
  return executed;
}

void fft_host(std::span<cplx> data, Variant variant, const PaperFftOptions& opts) {
  const std::uint64_t n = data.size();
  // Every call builds its own plan (which rejects anything but a power of
  // two >= 2^radix_log2), its counter shape and the twiddles in the
  // requested layout. Stage 0 has no producers; stages 1..S-1 use the
  // plan's sibling-group algebra.
  const FftPlan plan(n, opts.radix_log2);
  const TwiddleTable twiddles(n, opts.layout);
  const std::uint32_t stages = plan.stage_count();
  const std::uint64_t tasks = plan.tasks_per_stage();
  std::vector<std::uint64_t> groups(stages, 0);
  std::vector<std::uint32_t> thresholds(stages, 1);
  for (std::uint32_t s = 1; s < stages; ++s) {
    groups[s] = plan.groups_in_stage(s);
    thresholds[s] = plan.group_threshold(s);
  }
  codelet::DependencyCounters counters(groups, thresholds);
  if (opts.workers == 0) throw std::invalid_argument("fft_host: zero workers");
  // The work-stealing mode runs on its own team; the sequential mode runs
  // every codelet on this thread, as worker 0.
  const bool sequential = opts.mode == SchedulerMode::kSequential;
  std::optional<codelet::HostRuntime> rt;
  if (!sequential) rt.emplace(opts.workers);
  const unsigned workers = sequential ? 1 : opts.workers;
  std::vector<KernelScratch> scratch;
  for (unsigned w = 0; w < workers; ++w) scratch.emplace_back(plan.radix());
  std::vector<std::vector<std::uint64_t>> members(workers);
  std::vector<std::vector<CodeletKey>> released(workers);
  std::vector<CodeletKey> seeds;
  const auto run = [&](PoolPolicy policy, const codelet::CodeletBody& body) {
    if (sequential)
      run_phase_sequential(seeds, policy, body);
    else
      rt->run_phase(seeds, policy, body);
  };

  // Bit reversal in parallel (the algorithms' first step) at the executor's
  // permutation grain; the i < j guard gives every swap exactly one owner.
  const unsigned bits = plan.log2_size();
  const SweepGrain grain = bitrev_sweep_grain(n, opts.workers);
  for (std::uint64_t c = 0; c < grain.chunks; ++c) seeds.push_back({0, c});
  run(PoolPolicy::kFifo, [&](CodeletKey key, unsigned, codelet::Pusher&) {
    const std::uint64_t end = std::min(n, (key.index + 1) * grain.per);
    for (std::uint64_t i = key.index * grain.per; i < end; ++i) {
      const std::uint64_t j = util::bit_reverse(i, bits);
      if (i < j) std::swap(data[i], data[j]);
    }
  });

  // One phase seeded with `order`'s tasks of `stage`. Codelets of stages
  // below `last_propagated` arrive at their child sibling group's counter
  // and release the group once it fills.
  const auto phase = [&](std::uint32_t stage, const std::vector<std::uint64_t>& order,
                         PoolPolicy policy, std::uint32_t last_propagated) {
    seeds.clear();
    for (std::uint64_t t : order) seeds.push_back({stage, t});
    run(policy, [&](CodeletKey key, unsigned w, codelet::Pusher& pusher) {
      run_codelet(plan, key.stage, key.index, data, twiddles, scratch[w]);
      if (key.stage >= last_propagated) return;
      const std::uint64_t g = plan.child_group(key.stage, key.index);
      if (!counters.arrive(key.stage + 1, g)) return;
      plan.group_members(key.stage + 1, g, members[w]);
      released[w].clear();
      for (std::uint64_t m : members[w]) released[w].push_back({key.stage + 1, m});
      pusher.push_batch(released[w]);
    });
  };

  const std::vector<std::uint64_t> natural =
      make_seed_order(SeedOrder::kNatural, tasks, 1);
  if (variant == Variant::kCoarse) {
    // Algorithm 1: a barrier after every stage.
    for (std::uint32_t s = 0; s < stages; ++s) phase(s, natural, PoolPolicy::kFifo, 0);
  } else if (variant == Variant::kFine) {
    const FineOrdering& o = opts.ordering;
    phase(0, make_seed_order(o.order, tasks, o.seed), o.policy, stages - 1);
  } else if (stages < 3) {
    // Degenerate guided input: Alg. 3 reduces to fine with its LIFO pool.
    phase(0, natural, PoolPolicy::kLifo, stages - 1);
  } else {
    // Algorithm 3: fine-grain up to stage S-3 (which does not propagate),
    // one barrier, then stage S-2 seeded column-batched so the last
    // stage's sibling groups complete early.
    phase(0, natural, PoolPolicy::kLifo, stages - 3);
    const std::vector<std::uint64_t> order = guided_phase2_order(plan);
    if (order.size() != tasks)
      throw std::logic_error("guided: phase-2 seeding does not cover the stage");
    phase(stages - 2, order, PoolPolicy::kLifo, stages - 1);
  }
}

std::string to_string(Variant v) {
  switch (v) {
    case Variant::kCoarse: return "coarse";
    case Variant::kFine: return "fine";
    case Variant::kGuided: return "guided";
  }
  return "?";
}

}  // namespace c64fft::fft
