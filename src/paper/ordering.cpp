#include "paper/ordering.hpp"

#include <numeric>
#include <stdexcept>

#include "fft/types.hpp"
#include "paper/fft_plan.hpp"
#include "util/bit_ops.hpp"
#include "util/prng.hpp"

namespace c64fft::fft {

std::vector<std::uint64_t> make_seed_order(SeedOrder order, std::uint64_t tasks,
                                           std::uint64_t seed) {
  std::vector<std::uint64_t> ids(tasks);
  std::iota(ids.begin(), ids.end(), std::uint64_t{0});
  switch (order) {
    case SeedOrder::kNatural:
      break;
    case SeedOrder::kReverse:
      std::reverse(ids.begin(), ids.end());
      break;
    case SeedOrder::kStrided: {
      if (!util::is_pow2(tasks))
        throw std::invalid_argument("make_seed_order: strided order needs power-of-two tasks");
      const unsigned bits = tasks > 1 ? util::ilog2(tasks) : 0;
      for (std::uint64_t i = 0; i < tasks; ++i) ids[i] = util::bit_reverse(i, bits);
      break;
    }
    case SeedOrder::kRandom: {
      util::Xoshiro256 rng(seed);
      rng.shuffle(std::span<std::uint64_t>(ids));
      break;
    }
  }
  return ids;
}

std::vector<FineOrdering> ordering_sweep() {
  using codelet::PoolPolicy;
  return {
      {PoolPolicy::kLifo, SeedOrder::kNatural, 1},
      {PoolPolicy::kLifo, SeedOrder::kReverse, 1},
      {PoolPolicy::kLifo, SeedOrder::kStrided, 1},
      {PoolPolicy::kLifo, SeedOrder::kRandom, 7},
      {PoolPolicy::kFifo, SeedOrder::kNatural, 1},
      {PoolPolicy::kFifo, SeedOrder::kStrided, 1},
  };
}

std::vector<std::uint64_t> guided_phase2_order(const FftPlan& plan, unsigned banks,
                                               unsigned interleave_bytes,
                                               unsigned elem_bytes) {
  const std::uint32_t last = plan.stage_count() - 1;
  if (last == 0) throw std::invalid_argument("guided_phase2_order: single-stage plan");
  const std::uint32_t penult = last - 1;
  const std::uint64_t groups = plan.groups_in_stage(last);

  // Bucket columns by the DRAM bank their members' gathered data lives
  // in (all members of a column share it). Bit-reversed enumeration
  // scatters adjacent columns before bucketing.
  std::vector<std::vector<std::uint64_t>> buckets(banks);
  std::vector<std::uint64_t> parents;
  const auto scatter = make_seed_order(SeedOrder::kStrided, groups, 1);
  for (std::uint64_t g : scatter) {
    plan.group_parents(last, g, parents);
    const std::uint64_t addr = plan.element_index(penult, parents.front(), 0) *
                               static_cast<std::uint64_t>(elem_bytes);
    buckets[(addr / interleave_bytes) % banks].push_back(g);
  }

  // Emit batches of up to `banks` columns (one per non-empty bucket),
  // member-interleaved.
  std::vector<std::uint64_t> out;
  out.reserve(plan.tasks_per_stage());
  std::vector<std::size_t> cursor(banks, 0);
  std::vector<std::vector<std::uint64_t>> batch;
  while (true) {
    batch.clear();
    for (unsigned b = 0; b < banks; ++b) {
      if (cursor[b] < buckets[b].size()) {
        plan.group_parents(last, buckets[b][cursor[b]++], parents);
        batch.push_back(parents);
      }
    }
    if (batch.empty()) break;
    const std::size_t members = batch.front().size();
    for (std::size_t m = 0; m < members; ++m)
      for (const auto& column : batch) out.push_back(column[m]);
  }
  if (out.size() != plan.tasks_per_stage())
    throw std::logic_error("guided_phase2_order: column cover mismatch");
  return out;
}

std::string to_string(SeedOrder order) {
  switch (order) {
    case SeedOrder::kNatural: return "natural";
    case SeedOrder::kReverse: return "reverse";
    case SeedOrder::kStrided: return "strided";
    case SeedOrder::kRandom: return "random";
  }
  return "?";
}

std::string to_string(const FineOrdering& o) {
  return std::string(o.policy == codelet::PoolPolicy::kLifo ? "lifo" : "fifo") + "/" +
         to_string(o.order);
}

}  // namespace c64fft::fft
