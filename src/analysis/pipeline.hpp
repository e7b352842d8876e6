#pragma once
// Multi-phase pipeline model — the composite-plan input language of the
// static verifier.
//
// A PlanModel (model.hpp) describes ONE scheduled classic plan of the
// paper; shipped execution paths are compositions: a batch (or a single
// transform) is one phase of whole-transform tasks, the hierarchical path
// and fft2d are the executor's tile pipeline — two phases of blocks (row
// blocks, then column blocks through the worker panels), over a gather
// matrix for the hierarchical path and in place for fft2d — and real_fft
// is pack + half-size FFT + untangle.
// A PipelineModel makes that whole choreography explicit: an ordered list
// of phases (separated by the barrier that ends each of the team's
// parallel_for calls), each a set of unordered tasks with read/write
// footprints across named buffers. The builders
// below derive every footprint from the same hooks the runtime executes —
// fft::hierarchical_grain, fft::bitrev_sweep_grain, fft::fft2d_shape, fft::real_forward_shape,
// fft::real_unpack_sources and, for the paper's phased hull, the FftPlan
// index algebra — so the model is the barrier hull of what actually runs,
// not a parallel description that can drift.
//
// Within one phase tasks are unordered (they may run concurrently on any
// worker); across phases the barrier orders everything. The fine/guided
// counter schedules refine this hull — their intra-phase orderings are
// proved separately by verify_graph/detect_races on the per-plan model —
// so a property proved here (coverage, aliasing-freedom) holds for every
// shipped schedule.

#include <cstdint>
#include <string>
#include <vector>

#include "paper/fft_plan.hpp"
#include "paper/twiddle_table.hpp"

namespace c64fft::analysis {

/// One named storage region of the pipeline (the data array, the
/// hierarchical gather matrix, a twiddle table, the packed real-FFT
/// buffer...).
struct BufferModel {
  std::string name;
  /// Element count (elements, not bytes).
  std::uint64_t elements = 0;
  /// Defined before phase 0 (transform input, twiddle tables). Reads of
  /// a non-input buffer are legal only after a phase has written the
  /// element — the read-before-write proof.
  bool input = false;
  /// Byte width of one element; 0 inherits PipelineModel::element_bytes.
  /// Real-scalar buffers (the real_fft signal) override to half the
  /// complex width.
  unsigned element_bytes = 0;
};

/// One element touched by a task: buffer id + element index.
struct Access {
  std::uint32_t buffer = 0;
  std::uint64_t element = 0;
};

/// One schedulable unit of a phase (a codelet, a whole transform, a block
/// of rows or columns of the tile pipeline).
struct PipelineTask {
  std::uint64_t index = 0;
  std::vector<Access> reads;
  std::vector<Access> writes;
  /// Real floating-point operations.
  std::uint64_t flops = 0;
  /// How many times the task streams its footprint. A fused hierarchical
  /// tail reads its block in, sweeps it and writes it out. Modelling
  /// that as `passes` keeps the footprint (the coverage input) exact
  /// while the cost model still charges the repeated traffic.
  std::uint64_t passes = 1;
  /// Of `passes`, how many stream the footprint as data movement
  /// (transpose / gather / writeback / permutation) rather than in-place
  /// butterfly work — the input of the tile-traffic split. kAutoMovement
  /// derives it from the footprint: all passes for flop-free tasks, one
  /// for an out-of-place single pass that computes (mixed-radix stage 0,
  /// the Bluestein chirp modulation), zero for in-place compute. Builders of fused multi-pass tasks (the
  /// hierarchical tail: gather-in + sweep + writeback-out) set it
  /// explicitly.
  static constexpr std::uint64_t kAutoMovement = ~std::uint64_t{0};
  std::uint64_t movement_passes = kAutoMovement;
};

/// One barrier-separated phase.
struct PhaseModel {
  std::string name;
  std::vector<PipelineTask> tasks;
  /// Buffers this phase claims to write completely: the coverage check
  /// proves every element of each listed buffer is written by exactly one
  /// task. Phases with partial footprints (bit-reversal, which never
  /// touches palindromic indices) list nothing and are still proved
  /// overlap- and alias-free.
  std::vector<std::uint32_t> full_coverage;
};

struct PipelineModel {
  std::string name;
  /// Transform size (the public N, not a sub-plan size).
  std::uint64_t n = 0;
  /// Codelet radix of the paper's phased hull (build_classic_pipeline);
  /// 0 for the production pipelines, which take no radix.
  unsigned radix_log2 = 0;
  /// Stable id of the kernel dispatch table the runtime would execute
  /// this pipeline with ("scalar" / "avx2") — stamped by the
  /// builders from the process-active table (fft::kernels), so a model
  /// built under fft_lint --isa=X records X. The kernel check validates
  /// the id against the dispatch registry and host cpuid support.
  std::string kernel_isa;
  /// Default byte width of one element (16 = double-complex, 8 =
  /// float-complex); per-buffer override in BufferModel.
  unsigned element_bytes = 16;

  std::vector<BufferModel> buffers;
  std::vector<PhaseModel> phases;

  std::uint32_t add_buffer(std::string buf_name, std::uint64_t elements,
                           bool input, unsigned elem_bytes = 0);
  std::size_t total_tasks() const;
  unsigned buffer_element_bytes(std::uint32_t buffer) const;
};

struct PipelineBuildOptions {
  /// Worker count the runtime grains its sweeps for (bitrev chunks,
  /// hierarchical blocks) — part of the modelled shape, not an analysis
  /// knob.
  unsigned workers = 4;
  /// 16 = f64 path, 8 = f32 path.
  unsigned element_bytes = 16;
  /// Twiddle storage layout of the classic stage phases.
  fft::TwiddleLayout layout = fft::TwiddleLayout::kLinear;
  /// L2 capacity the hierarchical block grain derives from
  /// (fft::hierarchical_grain, the executor's policy); 0 = the host's
  /// (util::cache_info). Pinning it keeps a model machine-independent.
  std::uint64_t l2_bytes = 0;
};

/// The paper's phased classic hull (fft_host, the simulator): the chunked
/// bit-reversal phase (fft::bitrev_sweep_grain) followed by one phase per
/// plan stage. No production route runs it; it is the barrier hull of the
/// Alg. 1-3 schedules that fft_lint's per-plan checks refine.
PipelineModel build_classic_pipeline(const fft::FftPlan& plan,
                                     const PipelineBuildOptions& opts = {},
                                     std::string name = {});

/// The executor's serial body over `batch` pow2 transforms of length n
/// (forward_batch/inverse_batch, and a single call as batch = 1): ONE
/// phase of whole-transform tasks, one per transform. Each task owns its
/// n elements (transforms at consecutive offsets of one data buffer),
/// streams them once (one whole-transform sweep) and carries the
/// transform's 5 n log2 n flops. Throws std::invalid_argument unless n is
/// a power of two >= 2 and batch >= 1.
PipelineModel build_batch_pipeline(std::uint64_t n, std::uint64_t batch,
                                   const PipelineBuildOptions& opts = {},
                                   std::string name = {});

/// Hierarchical large-N pipeline (executor run_hierarchical_locked) over
/// the balanced split fft::hierarchical_split(n): the executor's two
/// phases — "gather-col", one task per column block (gather-transpose of
/// the block's data columns into the contiguous gather matrix, then the
/// in-place column FFTs over those rows), and "fused-row", one task per
/// output block (twiddle-gather + row FFTs + writeback-transpose into
/// natural order). Tasks are the blocks the team's two parallel_for calls
/// run (fft::hierarchical_grain), footprints element-exact, so the
/// coverage proof shows every data element written by exactly one fused
/// tail task. The per-worker panels are L2-resident by the grain
/// policy and not modelled.
PipelineModel build_hierarchical_pipeline(std::uint64_t n,
                                          const PipelineBuildOptions& opts = {},
                                          std::string name = {});

/// Mixed-radix composite-N pipeline (executor run_mixed_radix_locked):
/// the chunked digit-reversal gather (fft::bitrev_sweep_grain, data ->
/// scratch) followed by one phase per stage of the factorization — stage
/// 0 reads the permuted scratch and writes data, later stages run in
/// place on data. Tasks are the executor's butterfly chunks (workers*4
/// cap), footprints the exact radix-r index sets plus the flat per-stage
/// twiddle reads, so the coverage proof shows every element written by
/// exactly one butterfly per stage. Throws unless n is 7-smooth.
PipelineModel build_mixed_radix_pipeline(std::uint64_t n,
                                         const PipelineBuildOptions& opts = {},
                                         std::string name = {});

/// Bluestein chirp-z pipeline for arbitrary N: serial chirp modulation
/// into the M = next_pow2(2N-1) convolution buffer (zero-filled tail),
/// the forward M-point FFT, serial pointwise multiply by the precomputed
/// chirp-filter spectrum, the inverse M-point FFT, serial demodulation
/// back into data. Each inner FFT is modelled as routing runs it: one
/// whole-transform task below the hierarchical threshold (the
/// executor's serial body), else the two hierarchical phases
/// (build_hierarchical_pipeline's, prefixed "fwd-"/"inv-") over the
/// convolution buffer and one shared gather matrix — every N >= 65537.
PipelineModel build_bluestein_pipeline(std::uint64_t n,
                                       const PipelineBuildOptions& opts = {},
                                       std::string name = {});

/// 2-D pipeline (fft::forward_2d, FftExecutor::transform_2d): the
/// executor's tile pipeline over the matrix itself — "rows", one task
/// per block of rows swept in place, then "cols", one task per block of
/// columns (gather into the worker panel, column FFTs, scatter back to
/// the same columns). Tasks are the blocks of fft::hierarchical_grain(
/// cols, rows, ...), the executor's grain, so the model reads the L2
/// like build_hierarchical_pipeline.
PipelineModel build_fft2d_pipeline(std::uint64_t rows, std::uint64_t cols,
                                   const PipelineBuildOptions& opts = {},
                                   std::string name = {});

/// Real-input forward pipeline (fft::real_forward): pack phase (even/odd
/// interleave into the half-length complex buffer), the half-point FFT as
/// one whole-transform task, untangling phase over the half+1 output bins
/// with the exact conjugate-mirror read pattern
/// (fft::real_unpack_sources).
PipelineModel build_real_fft_pipeline(std::uint64_t n,
                                      const PipelineBuildOptions& opts = {},
                                      std::string name = {});

}  // namespace c64fft::analysis
