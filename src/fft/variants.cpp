#include "fft/variants.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <mutex>
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

namespace {

/// One phase's shared ready pool: the queued codelets plus a count of the
/// queued and executing ones. The phase is over when that count is zero.
class ReadyPool final : public codelet::Pusher {
 public:
  ReadyPool(std::span<const CodeletKey> seeds, PoolPolicy policy)
      : items_(seeds.begin(), seeds.end()),
        pending_(seeds.size()),
        policy_(policy) {}

  void push(CodeletKey ready) override {
    {
      std::lock_guard lock(mutex_);
      items_.push_back(ready);
      ++pending_;
    }
    cv_.notify_one();
  }

  void push_batch(std::span<const CodeletKey> batch) override {
    {
      std::lock_guard lock(mutex_);
      items_.insert(items_.end(), batch.begin(), batch.end());
      pending_ += batch.size();
    }
    cv_.notify_all();
  }

  /// Waits for a queued codelet and pops it in policy order; false once
  /// the phase is over or failed.
  bool pop(CodeletKey& out) {
    std::unique_lock lock(mutex_);
    cv_.wait(lock, [&] { return failed_ || !items_.empty() || pending_ == 0; });
    if (failed_ || items_.empty()) return false;
    if (policy_ == PoolPolicy::kLifo) {
      out = items_.back();
      items_.pop_back();
    } else {
      out = items_.front();
      items_.pop_front();
    }
    return true;
  }

  /// Retires a popped codelet after its body returned.
  void done() {
    std::lock_guard lock(mutex_);
    if (--pending_ == 0) cv_.notify_all();
  }

  /// A body threw: every worker stops popping.
  void fail() {
    {
      std::lock_guard lock(mutex_);
      failed_ = true;
    }
    cv_.notify_all();
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<CodeletKey> items_;
  std::uint64_t pending_;
  bool failed_ = false;
  PoolPolicy policy_;
};

}  // namespace

void run_pool_phase(codelet::Team& team, std::span<const CodeletKey> seeds,
                    PoolPolicy policy, const codelet::CodeletBody& body) {
  ReadyPool pool(seeds, policy);
  // One index per worker, each draining the pool until the phase is over.
  team.parallel_for(team.workers(), [&](std::uint64_t, unsigned worker) {
    CodeletKey key;
    while (pool.pop(key)) {
      try {
        body(key, worker, pool);
      } catch (...) {
        pool.fail();
        throw;
      }
      pool.done();
    }
  });
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
  codelet::Team team(opts.workers);
  std::vector<KernelScratch> scratch;
  for (unsigned w = 0; w < opts.workers; ++w) scratch.emplace_back(plan.radix());
  std::vector<std::vector<std::uint64_t>> members(opts.workers);
  std::vector<std::vector<CodeletKey>> released(opts.workers);
  std::vector<CodeletKey> seeds;
  const auto run = [&](PoolPolicy policy, const codelet::CodeletBody& body) {
    run_pool_phase(team, seeds, policy, body);
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
