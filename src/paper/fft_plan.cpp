#include "paper/fft_plan.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "util/bit_ops.hpp"

namespace c64fft::fft {

FftPlan::FftPlan(std::uint64_t n, unsigned radix_log2) : n_(n), r_(radix_log2) {
  if (n < 2 || !util::is_pow2(n))
    throw std::invalid_argument("FftPlan: size must be a power of two >= 2");
  if (radix_log2 < 1 || radix_log2 > 8)
    throw std::invalid_argument("FftPlan: radix_log2 must be in [1, 8]");
  log2n_ = util::ilog2(n);
  if (log2n_ < radix_log2)
    throw std::invalid_argument("FftPlan: size must be at least the radix");
  tasks_ = n_ >> r_;
  const std::uint32_t full = log2n_ / r_;
  const std::uint32_t rem = log2n_ % r_;
  const std::uint32_t count = full + (rem ? 1 : 0);
  stages_.reserve(count);
  for (std::uint32_t s = 0; s < count; ++s) {
    StageInfo st;
    st.index = s;
    st.partial = (rem != 0 && s + 1 == count);
    st.levels = st.partial ? rem : r_;
    st.chain_len = std::uint64_t{1} << st.levels;
    st.chains_per_task = (std::uint64_t{1} << r_) / st.chain_len;
    st.chain_stride = std::uint64_t{1} << (r_ * s);
    stages_.push_back(st);
  }
}

std::uint64_t FftPlan::chain_base(std::uint32_t s, std::uint64_t i, std::uint64_t c) const {
  const StageInfo& st = stages_.at(s);
  assert(i < tasks_ && c < st.chains_per_task);
  if (!st.partial) {
    const std::uint64_t rj = rpow(s);
    return rpow(s + 1) * (i / rj) + (i % rj);
  }
  return st.chains_per_task * i + c;
}

std::uint64_t FftPlan::element_index(std::uint32_t s, std::uint64_t i, std::uint64_t k) const {
  const StageInfo& st = stages_.at(s);
  assert(k < radix());
  const std::uint64_t c = k / st.chain_len;
  const std::uint64_t q = k % st.chain_len;
  return chain_base(s, i, c) + q * st.chain_stride;
}

std::uint64_t FftPlan::twiddle_index(std::uint32_t s, std::uint64_t i, std::uint32_t v,
                                     std::uint64_t k) const {
  [[maybe_unused]] const StageInfo& st = stages_.at(s);
  assert(v < st.levels);
  assert((k % st.chain_len) % (std::uint64_t{2} << v) < (std::uint64_t{1} << v) &&
         "k must be the lower element of its butterfly");
  const std::uint64_t g_lo = element_index(s, i, k);
  const std::uint32_t level = r_ * s + v;  // global butterfly level L
  const std::uint64_t block = std::uint64_t{1} << level;
  return (g_lo % block) << (log2n_ - level - 1);
}

void FftPlan::task_elements(std::uint32_t s, std::uint64_t i,
                            std::vector<std::uint64_t>& out) const {
  out.clear();
  out.reserve(radix());
  for (std::uint64_t k = 0; k < radix(); ++k) out.push_back(element_index(s, i, k));
}

void FftPlan::task_twiddles(std::uint32_t s, std::uint64_t i,
                            std::vector<std::uint64_t>& out) const {
  const StageInfo& st = stages_.at(s);
  out.clear();
  out.reserve(twiddles_per_task(s));
  for (std::uint32_t v = 0; v < st.levels; ++v) {
    const std::uint64_t hw = std::uint64_t{1} << v;
    for (std::uint64_t c = 0; c < st.chains_per_task; ++c)
      for (std::uint64_t p = 0; p < hw; ++p)
        out.push_back(twiddle_index(s, i, v, c * st.chain_len + p));
  }
}

std::uint64_t FftPlan::twiddles_per_task(std::uint32_t s) const {
  const StageInfo& st = stages_.at(s);
  return st.chains_per_task * (st.chain_len - 1);
}

std::uint64_t FftPlan::flops_per_task(std::uint32_t s) const {
  // 10 real flops per 2-point butterfly (complex mul = 6, two complex
  // adds = 4); chains * chain_len/2 butterflies per level.
  const StageInfo& st = stages_.at(s);
  return 10 * st.chains_per_task * (st.chain_len / 2) * st.levels;
}

std::uint32_t FftPlan::group_threshold(std::uint32_t s) const {
  if (s == 0 || s >= stage_count())
    throw std::out_of_range("group_threshold: stage must be in [1, stages)");
  const StageInfo& st = stages_[s];
  if (!st.partial) return static_cast<std::uint32_t>(radix());
  const std::uint64_t rprev = rpow(s - 1);
  const std::uint64_t span = std::min(st.chains_per_task, rprev);
  return static_cast<std::uint32_t>((std::uint64_t{1} << st.levels) * span);
}

std::uint64_t FftPlan::groups_in_stage(std::uint32_t s) const {
  if (s == 0 || s >= stage_count())
    throw std::out_of_range("groups_in_stage: stage must be in [1, stages)");
  const StageInfo& st = stages_[s];
  if (!st.partial) return tasks_ / radix();
  const std::uint64_t rprev = rpow(s - 1);
  return st.chains_per_task >= rprev ? 1 : rprev / st.chains_per_task;
}

std::uint64_t FftPlan::group_size(std::uint32_t s) const {
  return tasks_ / groups_in_stage(s);
}

std::uint64_t FftPlan::group_of(std::uint32_t s, std::uint64_t l) const {
  if (s == 0 || s >= stage_count())
    throw std::out_of_range("group_of: stage must be in [1, stages)");
  assert(l < tasks_);
  const StageInfo& st = stages_[s];
  if (!st.partial) {
    const std::uint64_t rs = rpow(s);
    const std::uint64_t rprev = rpow(s - 1);
    return (l / rs) * rprev + (l % rprev);
  }
  const std::uint64_t groups = groups_in_stage(s);
  return l % groups;
}

std::uint64_t FftPlan::child_group(std::uint32_t s, std::uint64_t i) const {
  const std::uint32_t cs = s + 1;
  if (cs >= stage_count()) throw std::out_of_range("child_group: last stage has no children");
  assert(i < tasks_);
  const StageInfo& child = stages_[cs];
  if (!child.partial) {
    const std::uint64_t rnext = rpow(cs);
    const std::uint64_t rs = rpow(s);
    return (i / rnext) * rs + (i % rnext) % rs;
  }
  const std::uint64_t rs = rpow(s);
  if (child.chains_per_task >= rs) return 0;
  return (i % rs) / child.chains_per_task;
}

void FftPlan::group_members(std::uint32_t s, std::uint64_t g,
                            std::vector<std::uint64_t>& out) const {
  out.clear();
  const StageInfo& st = stages_.at(s);
  if (s == 0) throw std::out_of_range("group_members: stage must be >= 1");
  assert(g < groups_in_stage(s));
  if (!st.partial) {
    // Inverse of group_of: l = block*R^s + res + k*R^{s-1}. Note the
    // member ids coincide with the group's parent ids in stage s-1 —
    // exactly the paper's "80 + 4096*m" example (Section IV-A2).
    const std::uint64_t rprev = rpow(s - 1);
    const std::uint64_t block = g / rprev;
    const std::uint64_t res = g % rprev;
    out.reserve(radix());
    for (std::uint64_t k = 0; k < radix(); ++k)
      out.push_back(block * rpow(s) + res + k * rprev);
    return;
  }
  const std::uint64_t groups = groups_in_stage(s);
  out.reserve(tasks_ / groups);
  for (std::uint64_t l = g; l < tasks_; l += groups) out.push_back(l);
}

void FftPlan::group_parents(std::uint32_t s, std::uint64_t g,
                            std::vector<std::uint64_t>& out) const {
  out.clear();
  const StageInfo& st = stages_.at(s);
  if (s == 0) throw std::out_of_range("group_parents: stage must be >= 1");
  assert(g < groups_in_stage(s));
  const std::uint64_t rprev = rpow(s - 1);
  if (!st.partial) {
    const std::uint64_t block = g / rprev;
    const std::uint64_t res = g % rprev;
    out.reserve(radix());
    for (std::uint64_t m = 0; m < radix(); ++m)
      out.push_back(block * rpow(s) + res + m * rprev);
    return;
  }
  const std::uint64_t cpt = st.chains_per_task;
  const std::uint64_t residues = std::min(cpt, rprev);
  const std::uint64_t chains = st.chain_len;  // 2^w values of q
  out.reserve(chains * residues);
  for (std::uint64_t q = 0; q < chains; ++q)
    for (std::uint64_t c = 0; c < residues; ++c)
      out.push_back(q * rprev + (cpt * g + c) % rprev);
}

void FftPlan::children_of(std::uint32_t s, std::uint64_t i,
                          std::vector<std::uint64_t>& out) const {
  out.clear();
  if (s + 1 >= stage_count()) return;
  group_members(s + 1, child_group(s, i), out);
}

void FftPlan::parents_of(std::uint32_t s, std::uint64_t l,
                         std::vector<std::uint64_t>& out) const {
  group_parents(s, group_of(s, l), out);
}

}  // namespace c64fft::fft
