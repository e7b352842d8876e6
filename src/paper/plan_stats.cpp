#include "paper/plan_stats.hpp"

#include <algorithm>

#include "util/bit_ops.hpp"

namespace c64fft::fft {

double StageTraffic::imbalance() const {
  std::uint64_t sum = 0, mx = 0;
  for (unsigned b = 0; b < data_accesses.size(); ++b) {
    const std::uint64_t v = bank_total(b);
    sum += v;
    mx = std::max(mx, v);
  }
  if (sum == 0) return 1.0;
  return static_cast<double>(mx) * static_cast<double>(data_accesses.size()) /
         static_cast<double>(sum);
}

TrafficCensus::TrafficCensus(const FftPlan& plan, TwiddleLayout layout, unsigned banks,
                             unsigned interleave_bytes, std::uint64_t data_base,
                             std::uint64_t twiddle_base, unsigned element_bytes)
    : banks_(banks) {
  const std::uint64_t half = plan.size() / 2;
  const unsigned tw_bits = half > 1 ? util::ilog2(half) : 0;
  auto bank_of = [&](std::uint64_t addr) {
    return static_cast<unsigned>((addr / interleave_bytes) % banks);
  };

  stages_.reserve(plan.stage_count());
  std::vector<std::uint64_t> elems, twiddles;
  for (std::uint32_t s = 0; s < plan.stage_count(); ++s) {
    StageTraffic st;
    st.stage = s;
    st.data_accesses.assign(banks, 0);
    st.twiddle_accesses.assign(banks, 0);
    for (std::uint64_t i = 0; i < plan.tasks_per_stage(); ++i) {
      // Data: one load + one store per element.
      plan.task_elements(s, i, elems);
      for (std::uint64_t e : elems)
        st.data_accesses[bank_of(data_base + e * element_bytes)] += 2;
      // Twiddles: one load per distinct factor.
      plan.task_twiddles(s, i, twiddles);
      for (std::uint64_t t : twiddles) {
        const std::uint64_t slot =
            layout == TwiddleLayout::kBitReversed ? util::bit_reverse(t, tw_bits) : t;
        st.twiddle_accesses[bank_of(twiddle_base + slot * element_bytes)] += 1;
      }
    }
    stages_.push_back(std::move(st));
  }
}

std::vector<std::uint64_t> TrafficCensus::totals() const {
  std::vector<std::uint64_t> out(banks_, 0);
  for (const auto& st : stages_)
    for (unsigned b = 0; b < banks_; ++b) out[b] += st.bank_total(b);
  return out;
}

double TrafficCensus::total_imbalance() const {
  const auto t = totals();
  std::uint64_t sum = 0, mx = 0;
  for (auto v : t) {
    sum += v;
    mx = std::max(mx, v);
  }
  if (sum == 0) return 1.0;
  return static_cast<double>(mx) * banks_ / static_cast<double>(sum);
}

double TrafficCensus::schedule_invariant_bound_cycles(double bytes_per_cycle,
                                                      unsigned element_bytes) const {
  const auto t = totals();
  std::uint64_t mx = 0;
  for (auto v : t) mx = std::max(mx, v);
  return static_cast<double>(mx) * element_bytes / bytes_per_cycle;
}

}  // namespace c64fft::fft
