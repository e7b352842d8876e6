#pragma once
// SimProgram implementations of the paper's three algorithms for the
// discrete-event C64 model. These mirror the host drivers in
// src/paper/variants.cpp, but instead of computing butterflies they emit
// each codelet's memory footprint and cycle cost to the engine.

#include <cstdint>
#include <deque>
#include <vector>

#include "c64/engine.hpp"
#include "paper/ordering.hpp"
#include "simfft/footprint.hpp"

namespace c64fft::simfft {

/// Shared machinery: counters, ready pool, spec filling.
class FftSimProgramBase : public c64::SimProgram {
 public:
  FftSimProgramBase(const FootprintBuilder& fp, const c64::ChipConfig& cfg);

  bool finished() const override { return completed_ == total_; }
  std::uint64_t completed() const noexcept { return completed_; }

 protected:
  struct Ready {
    std::uint32_t stage;
    std::uint64_t task;
  };

  void fill_spec(std::uint32_t stage, std::uint64_t task, c64::TaskSpec& out,
                 std::uint32_t start_overhead, std::uint32_t finish_overhead) const;

  // Pool helpers (LIFO/FIFO over a deque).
  void push_ready(Ready r) { ready_.push_back(r); }
  bool pop_ready(codelet::PoolPolicy policy, Ready& out);
  std::size_t ready_size() const noexcept { return ready_.size(); }

  // Dependency propagation: record completion of (stage, task) and push
  // its child sibling group if it became ready. `last_propagated` caps
  // propagation (Alg. 3 phase 1). Pushes members in ascending order.
  void propagate(std::uint32_t stage, std::uint64_t task, std::uint32_t last_propagated);

  void reset_counters();

  /// (stage, task) <-> dense 64-bit id for the engine's task_id field.
  std::uint64_t encode(std::uint32_t stage, std::uint64_t task) const {
    return static_cast<std::uint64_t>(stage) * fp_.plan().tasks_per_stage() + task;
  }
  Ready decode(std::uint64_t id) const {
    return {static_cast<std::uint32_t>(id / fp_.plan().tasks_per_stage()),
            id % fp_.plan().tasks_per_stage()};
  }

  const FootprintBuilder& fp_;
  const c64::ChipConfig& cfg_;
  std::uint64_t total_;
  std::uint64_t completed_ = 0;

 private:
  std::deque<Ready> ready_;
  std::vector<std::vector<std::uint32_t>> counters_;  // per consumer stage
  std::vector<std::uint64_t> members_buf_;
};

/// Algorithm 1: one barrier per stage. The parallel-for distributes tasks
/// statically and cyclically (TU t runs t, t+P, t+2P, ... of each stage),
/// as in the coarse-grain C64 implementations the paper baselines
/// against — so the coarse version carries the wave-quantisation and
/// imbalance cost that dynamic fine-grain scheduling removes.
class CoarseSimProgram final : public FftSimProgramBase {
 public:
  CoarseSimProgram(const FootprintBuilder& fp, const c64::ChipConfig& cfg);

  c64::PopResult next_task(unsigned tu, std::uint64_t now, c64::TaskSpec& out,
                           std::uint64_t& wake_at) override;
  void task_done(unsigned tu, std::uint64_t task_id, std::uint64_t now) override;

 private:
  std::uint32_t stage_ = 0;
  std::vector<std::uint64_t> next_of_tu_;  // per-TU static cursor
  std::uint64_t done_in_stage_ = 0;
  bool in_barrier_ = false;
  std::uint64_t release_at_ = 0;
};

/// Algorithm 2: barrier-free; initial order + pool policy are free.
class FineSimProgram : public FftSimProgramBase {
 public:
  FineSimProgram(const FootprintBuilder& fp, const c64::ChipConfig& cfg,
                 const fft::FineOrdering& ordering);

  c64::PopResult next_task(unsigned tu, std::uint64_t now, c64::TaskSpec& out,
                           std::uint64_t& wake_at) override;
  void task_done(unsigned tu, std::uint64_t task_id, std::uint64_t now) override;

 private:
  codelet::PoolPolicy policy_;
};

/// Algorithm 3: fine-grain early stages, one barrier, then the last two
/// stages with sibling-group LIFO seeding.
class GuidedSimProgram : public FftSimProgramBase {
 public:
  GuidedSimProgram(const FootprintBuilder& fp, const c64::ChipConfig& cfg);

  c64::PopResult next_task(unsigned tu, std::uint64_t now, c64::TaskSpec& out,
                           std::uint64_t& wake_at) override;
  void task_done(unsigned tu, std::uint64_t task_id, std::uint64_t now) override;

 private:
  void seed_phase2();

  bool degenerate_;           ///< < 3 stages: behaves like fine/LIFO
  std::uint32_t last_early_;  ///< last stage of phase 1
  std::uint64_t phase1_total_;
  std::uint64_t phase1_done_ = 0;
  bool in_barrier_ = false;
  bool phase2_seeded_ = false;
  std::uint64_t release_at_ = 0;
};

}  // namespace c64fft::simfft
