#pragma once
// Stage/task decomposition of an N-point radix-2^r Cooley-Tukey FFT into
// 2^r-point codelets — the index algebra of the paper's Section IV-A.
//
// With N = 2^n, radix R = 2^r (paper: R = 64, r = 6) and S = ceil(n/r)
// stages, every stage has N/R tasks. A task of a *full* stage j gathers
// one chain of R elements
//     data_k = D[R^{j+1} * floor(i/R^j) + (i mod R^j) + k * R^j]
// and applies r butterfly levels. When r does not divide n, the last
// stage applies only w = n mod r levels; its tasks still move R elements
// but as R/2^w independent chains of 2^w points each:
//     data_{c,q} = D[(cpt*i + c) + q * 2^{r*j}],  cpt = R / 2^w
// (this degenerates to the full-stage chain when w = r). The twiddle of a
// butterfly whose lower element has global index g at global level L is
//     W[(g mod 2^L) * 2^{n-L-1}]
// which reduces to the paper's per-task formula.
//
// Dependency structure: a stage-(j+1) task reads outputs of exactly
// `group_threshold(j+1)` distinct stage-j tasks, and tasks sharing that
// parent set form a *sibling group* which shares one dependency counter
// (Section IV-A2). All of this algebra is cross-validated in the tests
// against a brute-force element-ownership graph.

#include <cstdint>
#include <vector>

namespace c64fft::fft {

struct StageInfo {
  std::uint32_t index = 0;
  /// Butterfly levels this stage applies (r, or n mod r for a partial
  /// last stage).
  std::uint32_t levels = 0;
  /// Independent chains per task (1 for a full stage).
  std::uint64_t chains_per_task = 1;
  /// Points per chain (R for a full stage, 2^levels otherwise).
  std::uint64_t chain_len = 0;
  /// Element stride within a chain: R^index... = 2^{r*index}.
  std::uint64_t chain_stride = 1;
  bool partial = false;
};

class FftPlan {
 public:
  /// N must be a power of two with N >= R = 2^radix_log2, radix_log2 in
  /// [1, 8] (the paper uses 6; Fig. 7 sweeps 2..7); std::invalid_argument
  /// otherwise.
  FftPlan(std::uint64_t n, unsigned radix_log2);

  std::uint64_t size() const noexcept { return n_; }
  unsigned log2_size() const noexcept { return log2n_; }
  std::uint64_t radix() const noexcept { return std::uint64_t{1} << r_; }
  unsigned radix_log2() const noexcept { return r_; }

  std::uint32_t stage_count() const noexcept { return static_cast<std::uint32_t>(stages_.size()); }
  const StageInfo& stage(std::uint32_t s) const { return stages_.at(s); }
  /// Tasks per stage (N/R, identical for every stage).
  std::uint64_t tasks_per_stage() const noexcept { return tasks_; }
  /// Total codelets over all stages.
  std::uint64_t total_tasks() const noexcept { return tasks_ * stage_count(); }

  /// Global data index of local point k (0 <= k < R) of task i in stage s.
  /// Local points enumerate chains contiguously: k = c * chain_len + q.
  std::uint64_t element_index(std::uint32_t s, std::uint64_t i, std::uint64_t k) const;

  /// Base (first element) of chain c of task i in stage s.
  std::uint64_t chain_base(std::uint32_t s, std::uint64_t i, std::uint64_t c) const;

  /// Logical twiddle index of the butterfly at local level v whose lower
  /// element is local point k of task i in stage s. k must be in the lower
  /// half of its 2^{v+1} sub-block: (k mod 2^{v+1}) < 2^v within its chain.
  std::uint64_t twiddle_index(std::uint32_t s, std::uint64_t i, std::uint32_t v,
                              std::uint64_t k) const;

  /// Distinct twiddle factors one task of stage s loads
  /// (R-1 for a full stage; cpt*(2^w - 1) for the partial last stage).
  std::uint64_t twiddles_per_task(std::uint32_t s) const;

  /// The R data element indices task i of stage s reads and writes (the
  /// in-place kernel's footprint), in local-point order k = 0..R-1.
  void task_elements(std::uint32_t s, std::uint64_t i, std::vector<std::uint64_t>& out) const;

  /// Logical twiddle indices task i of stage s loads, one per butterfly
  /// (twiddles_per_task(s) entries, level-major).
  void task_twiddles(std::uint32_t s, std::uint64_t i, std::vector<std::uint64_t>& out) const;

  /// Real floating-point operations per task of stage s
  /// (10 flops per 2-point butterfly; 5*R*levels total).
  std::uint64_t flops_per_task(std::uint32_t s) const;

  // ---- Dependency / sibling-group algebra ----

  /// Number of distinct stage-(s-1) producers one stage-s task reads
  /// (== the shared counter threshold of stage s). s >= 1.
  std::uint32_t group_threshold(std::uint32_t s) const;

  /// Number of sibling groups in stage s (s >= 1); groups * members == tasks.
  std::uint64_t groups_in_stage(std::uint32_t s) const;

  /// Members of one sibling group in stage s (s >= 1); tasks/groups entries.
  std::uint64_t group_size(std::uint32_t s) const;

  /// Sibling-group id of task l in stage s (s >= 1).
  std::uint64_t group_of(std::uint32_t s, std::uint64_t l) const;

  /// The sibling group of stage s+1 whose counter task i of stage s
  /// increments on completion (every task increments exactly one).
  std::uint64_t child_group(std::uint32_t s, std::uint64_t i) const;

  /// Tasks of sibling group g in stage s, ascending (s >= 1).
  void group_members(std::uint32_t s, std::uint64_t g, std::vector<std::uint64_t>& out) const;

  /// The distinct stage-(s-1) producers of sibling group g in stage s,
  /// ascending — used by the guided algorithm's phase-2 seeding (Alg. 3).
  void group_parents(std::uint32_t s, std::uint64_t g, std::vector<std::uint64_t>& out) const;

  /// Direct consumers of task i in stage s (empty for the last stage):
  /// exactly the members of sibling group child_group(s, i) in stage s+1.
  void children_of(std::uint32_t s, std::uint64_t i, std::vector<std::uint64_t>& out) const;

  /// Distinct producers of task l in stage s (s >= 1), ascending.
  void parents_of(std::uint32_t s, std::uint64_t l, std::vector<std::uint64_t>& out) const;

 private:
  std::uint64_t rpow(unsigned e) const noexcept { return std::uint64_t{1} << (r_ * e); }

  std::uint64_t n_;
  unsigned log2n_;
  unsigned r_;
  std::uint64_t tasks_;
  std::vector<StageInfo> stages_;
};

}  // namespace c64fft::fft
