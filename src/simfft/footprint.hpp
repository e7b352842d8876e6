#pragma once
// Translates one FFT codelet into the off-chip memory traffic and compute
// time it costs on the modelled C64 — the bridge between the FFT plan
// algebra (src/fft) and the discrete-event machine (src/c64).
//
// Every data/twiddle element access is mapped to its DRAM bank through the
// 64 B round-robin AddressMap; consecutive same-bank accesses of one task
// are merged into requests of at most `coalesce_limit` bytes (byte counts
// are exact). A task whose scratchpad working set exceeds
// `scratchpad_bytes` reloads and re-stores its data once more (spill).
// With the bit-reversed ("hashed") twiddle layout every twiddle access is
// charged the hash cost as a pre-issue delay on the issuing TU.

#include <cstdint>

#include "c64/address_map.hpp"
#include "c64/config.hpp"
#include "c64/engine.hpp"
#include "paper/fft_plan.hpp"
#include "paper/twiddle_table.hpp"

namespace c64fft::simfft {

class FootprintBuilder {
 public:
  /// `data_base` / `twiddle_base` are the byte addresses of the two
  /// arrays in DRAM. Both default to interleave-aligned bases (bank 0),
  /// matching the paper's setup where the twiddle hotspot is bank 0.
  /// `element_bytes` is the byte width of one complex element (16 for
  /// double-complex — the paper's setup and the default — or 8 for
  /// float-complex); it scales every address, the coalescing runs, and
  /// the spill threshold, so the f32 footprint is a genuinely different
  /// traffic shape, not the f64 one rescaled.
  FootprintBuilder(const fft::FftPlan& plan, const c64::ChipConfig& cfg,
                   fft::TwiddleLayout layout, std::uint64_t data_base = 0,
                   std::uint64_t twiddle_base = 0, unsigned element_bytes = 16);

  /// Fill `out` (task_id and overhead fields are left to the caller) with
  /// the loads, compute cycles and stores of task `task` of stage `stage`.
  void build(std::uint32_t stage, std::uint64_t task, c64::TaskSpec& out) const;

  /// Off-chip bytes the task moves (loads + stores, incl. spill).
  std::uint64_t bytes_per_task(std::uint32_t stage) const;

  /// True when one task's working set exceeds the scratchpad and spills.
  bool spills() const noexcept { return spill_; }

  const fft::FftPlan& plan() const noexcept { return plan_; }
  fft::TwiddleLayout layout() const noexcept { return layout_; }
  unsigned element_bytes() const noexcept { return elem_; }

 private:
  struct Run {  // coalescing state
    int bank = -1;
    std::uint32_t bytes = 0;
    std::uint32_t pre_issue = 0;
    std::uint64_t next_addr = 0;  // address one past the current run
  };
  void add_element(c64::TaskSpec& out, Run& run, std::uint64_t addr,
                   std::uint32_t pre_issue) const;
  static void flush(c64::TaskSpec& out, Run& run);

  void append_data_pass(std::uint32_t stage, std::uint64_t task,
                        c64::TaskSpec& out, Run& run) const;
  void append_twiddles(std::uint32_t stage, std::uint64_t task, c64::TaskSpec& out,
                       Run& run) const;

  const fft::FftPlan& plan_;
  c64::ChipConfig cfg_;  // copied: builders must not alias caller mutations
  c64::AddressMap map_;
  fft::TwiddleLayout layout_;
  std::uint64_t data_base_;
  std::uint64_t twiddle_base_;
  unsigned elem_;
  unsigned twiddle_bits_;
  bool spill_;
};

}  // namespace c64fft::simfft
