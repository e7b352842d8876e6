#include "analysis/pipeline.hpp"

#include <stdexcept>
#include <utility>

#include "fft/executor.hpp"
#include "fft/fft2d.hpp"
#include "fft/kernels/dispatch.hpp"
#include "fft/mixed_radix.hpp"
#include "fft/real_fft.hpp"
#include "fft/transpose.hpp"
#include "util/bit_ops.hpp"
#include "util/cpu_features.hpp"

namespace c64fft::analysis {

std::uint32_t PipelineModel::add_buffer(std::string buf_name,
                                        std::uint64_t elements, bool input,
                                        unsigned elem_bytes) {
  BufferModel b;
  b.name = std::move(buf_name);
  b.elements = elements;
  b.input = input;
  b.element_bytes = elem_bytes;
  buffers.push_back(std::move(b));
  return static_cast<std::uint32_t>(buffers.size() - 1);
}

std::size_t PipelineModel::total_tasks() const {
  std::size_t total = 0;
  for (const PhaseModel& p : phases) total += p.tasks.size();
  return total;
}

unsigned PipelineModel::buffer_element_bytes(std::uint32_t buffer) const {
  const unsigned override_bytes = buffers.at(buffer).element_bytes;
  return override_bytes != 0 ? override_bytes : element_bytes;
}

namespace {

/// Flops of one complex multiply (4 mul + 2 add) — the fused
/// twiddle-transpose charge per element.
constexpr std::uint64_t kCplxMulFlops = 6;
/// Per-bin charge of the real-FFT untangling pass (two half-sum
/// combines plus one twiddle multiply; trig evaluation not counted, as
/// everywhere else in the plan algebra).
constexpr std::uint64_t kUntangleFlopsPerBin = 20;

/// Real flops of one whole n-point pow2 transform: n/2 butterflies of 10
/// flops on each of log2 n levels — the total every radix's stage
/// decomposition sums to (FftPlan::flops_per_task).
std::uint64_t transform_flops(std::uint64_t n) {
  return 5 * n * util::ilog2(n);
}

/// Estimated real flops of one radix-r mixed-radix butterfly: twiddle
/// multiplies (6 real flops each, u = 1..r-1) plus the codelet DFT body;
/// the radix-2 value (10) matches FftPlan's 10-per-butterfly convention so
/// cost baselines stay comparable. Deterministic, not exact.
std::uint64_t butterfly_flops(std::uint32_t radix) {
  switch (radix) {
    case 2: return 10;
    case 3: return 30;
    case 4: return 34;
    case 5: return 64;
    case 7: return 120;
    case 8: return 110;
    default: return 10;
  }
}

std::uint64_t twiddle_slot(std::uint64_t t, fft::TwiddleLayout layout,
                           unsigned tw_bits) {
  return layout == fft::TwiddleLayout::kBitReversed ? util::bit_reverse(t, tw_bits)
                                                    : t;
}

/// One phase of `count` whole-transform tasks: the shape the executor's
/// serial body runs a batch as (one codelet per transform). Task b owns
/// the n elements of transform b, consecutive in `data_buf`, which the
/// transforms tile exactly; it streams them once (run_transform_split:
/// one permuted gather, every butterfly level in cache, one scatter) and
/// carries the whole transform's flops.
void append_batch_phase(PipelineModel& m, std::uint64_t n,
                        std::uint32_t data_buf, std::uint64_t count,
                        std::string phase_name) {
  PhaseModel phase;
  phase.name = std::move(phase_name);
  phase.full_coverage.push_back(data_buf);
  for (std::uint64_t b = 0; b < count; ++b) {
    PipelineTask task;
    task.index = b;
    for (std::uint64_t e = b * n; e < (b + 1) * n; ++e) {
      task.reads.push_back({data_buf, e});
      task.writes.push_back({data_buf, e});
    }
    task.flops = transform_flops(n);
    phase.tasks.push_back(std::move(task));
  }
  m.phases.push_back(std::move(phase));
}

/// Out-of-place blocked transpose of an R x C row-major `src` into a
/// C x R `dst`, one task per kTransposeTile tile; claims full coverage
/// of `dst`.
void append_transpose(PipelineModel& m, std::uint32_t src, std::uint32_t dst,
                      std::uint64_t rows, std::uint64_t cols,
                      std::string phase_name) {
  PhaseModel phase;
  phase.name = std::move(phase_name);
  phase.full_coverage.push_back(dst);
  std::uint64_t index = 0;
  fft::for_each_transpose_tile(
      rows, cols,
      [&](std::uint64_t r0, std::uint64_t rmax, std::uint64_t c0,
          std::uint64_t cmax) {
        PipelineTask task;
        task.index = index++;
        for (std::uint64_t r = r0; r < rmax; ++r)
          for (std::uint64_t c = c0; c < cmax; ++c) {
            task.reads.push_back({src, r * cols + c});
            task.writes.push_back({dst, c * rows + r});
          }
        phase.tasks.push_back(std::move(task));
      });
  m.phases.push_back(std::move(phase));
}

/// In-place square transpose, one task per diagonal tile or mirror tile
/// pair (fft::for_each_transpose_tile_pair). No coverage claim: the
/// diagonal is never touched, and the diagonal tiles' own diagonals stay
/// in place — the check still proves the pair decomposition disjoint.
void append_transpose_inplace(PipelineModel& m, std::uint32_t buf,
                              std::uint64_t n, std::string phase_name) {
  PhaseModel phase;
  phase.name = std::move(phase_name);
  std::uint64_t index = 0;
  fft::for_each_transpose_tile_pair(
      n, [&](std::uint64_t r0, std::uint64_t rmax, std::uint64_t c0,
             std::uint64_t cmax) {
        PipelineTask task;
        task.index = index++;
        auto touch = [&](std::uint64_t e) {
          task.reads.push_back({buf, e});
          task.writes.push_back({buf, e});
        };
        if (r0 == c0) {
          for (std::uint64_t r = r0; r < rmax; ++r)
            for (std::uint64_t c = r + 1; c < cmax; ++c) {
              touch(r * n + c);
              touch(c * n + r);
            }
        } else {
          for (std::uint64_t r = r0; r < rmax; ++r)
            for (std::uint64_t c = c0; c < cmax; ++c) {
              touch(r * n + c);
              touch(c * n + r);
            }
        }
        phase.tasks.push_back(std::move(task));
      });
  m.phases.push_back(std::move(phase));
}

PipelineModel make_base(std::string name, std::uint64_t n,
                        const PipelineBuildOptions& opts) {
  PipelineModel m;
  m.name = std::move(name);
  m.n = n;
  m.element_bytes = opts.element_bytes;
  // The id of the table the executor would dispatch to right now; both
  // precisions share one active level, so either table's id works.
  m.kernel_isa = fft::kernels::active_kernels<double>().id;
  return m;
}

/// The two phases of one hierarchical transform of `n` points over
/// `data`, with `s` (n elements) as its gather matrix; phase names carry
/// `prefix`. Tasks are the blocks the executor's two parallel_for calls
/// run, derived from the same hook (executor hierarchical_grain), so they
/// are the pipeline's actual schedulable units, not a finer fiction.
void append_hierarchical_phases(PipelineModel& m, std::uint64_t n,
                                std::uint32_t data, std::uint32_t s,
                                const PipelineBuildOptions& opts,
                                const std::string& prefix) {
  const fft::HierarchicalSplit split = fft::hierarchical_split(n);
  const std::uint64_t n1 = split.n1;
  const std::uint64_t n2 = split.n2;
  const fft::HierarchicalGrain grain = fft::hierarchical_grain(
      n1, n2, opts.workers, opts.element_bytes,
      opts.l2_bytes != 0 ? opts.l2_bytes : util::cache_info().l2_bytes);

  // Phase A, one task per column block i: T1 gather-transposes data
  // columns [c0b, cend) into contiguous rows of the gather matrix, then T2
  // runs the in-place column FFTs over those rows — one whole-transform
  // sweep per row. The footprint is T1's; T2 streams the written rows
  // once more, so the task makes one movement pass and one sweep pass.
  PhaseModel col;
  col.name = prefix + "gather-col";
  col.full_coverage.push_back(s);
  for (std::uint64_t i = 0; i < grain.blocks1; ++i) {
    const std::uint64_t c0b = i * grain.block_rows1;
    const std::uint64_t cend = std::min(n2, c0b + grain.block_rows1);
    PipelineTask task;
    task.index = i;
    for (std::uint64_t r = 0; r < n1; ++r)
      for (std::uint64_t c = c0b; c < cend; ++c) {
        task.reads.push_back({data, r * n2 + c});
        task.writes.push_back({s, c * n1 + r});
      }
    task.flops = (cend - c0b) * transform_flops(n1);
    task.passes = 2;
    task.movement_passes = 1;  // the gather-in
    col.tasks.push_back(std::move(task));
  }
  m.phases.push_back(std::move(col));

  // Phase B, one task per row block j — T4, the fused tail:
  // twiddle-gather the block's columns of the gather matrix into the
  // worker panel, row FFTs over the hot panel, writeback-transpose into
  // natural output order. One streaming pass for the row sweeps plus the
  // gather-in and writeback-out.
  PhaseModel fused;
  fused.name = prefix + "fused-row";
  fused.full_coverage.push_back(data);
  const std::uint64_t per_row_flops = transform_flops(n2);
  for (std::uint64_t j = 0; j < grain.blocks2; ++j) {
    const std::uint64_t r0b = j * grain.block_rows2;
    const std::uint64_t rend = std::min(n1, r0b + grain.block_rows2);
    PipelineTask task;
    task.index = j;
    for (std::uint64_t r = 0; r < n2; ++r)
      for (std::uint64_t c = r0b; c < rend; ++c)
        task.reads.push_back({s, r * n1 + c});
    for (std::uint64_t c = 0; c < n2; ++c)
      for (std::uint64_t r = r0b; r < rend; ++r)
        task.writes.push_back({data, c * n1 + r});
    task.flops = (rend - r0b) * (n2 * kCplxMulFlops + per_row_flops);
    task.passes = 1 + 2;
    task.movement_passes = 2;  // the gather-in and the writeback-out
    fused.tasks.push_back(std::move(task));
  }
  m.phases.push_back(std::move(fused));
}

}  // namespace

PipelineModel build_classic_pipeline(const fft::FftPlan& plan,
                                     const PipelineBuildOptions& opts,
                                     std::string name) {
  const std::uint64_t n = plan.size();
  PipelineModel m =
      make_base(name.empty() ? "classic" : std::move(name), n, opts);
  m.radix_log2 = plan.radix_log2();
  const std::uint32_t data = m.add_buffer("data", n, /*input=*/true);
  const std::uint32_t tw = m.add_buffer("twiddles", n / 2, /*input=*/true);

  // The chunked bit-reversal sweep (fft::bitrev_sweep_grain). It never
  // claims coverage: palindromic indices are not touched.
  const unsigned bits = plan.log2_size();
  {
    PhaseModel phase;
    phase.name = "bitrev";
    const fft::SweepGrain grain = fft::bitrev_sweep_grain(n, opts.workers);
    for (std::uint64_t c = 0; c < grain.chunks; ++c) {
      const std::uint64_t begin = c * grain.per;
      if (begin >= n) break;
      const std::uint64_t end = std::min<std::uint64_t>(n, begin + grain.per);
      PipelineTask task;
      task.index = c;
      for (std::uint64_t i = begin; i < end; ++i) {
        const std::uint64_t j = util::bit_reverse(i, bits);
        if (i >= j) continue;
        task.reads.push_back({data, i});
        task.reads.push_back({data, j});
        task.writes.push_back({data, i});
        task.writes.push_back({data, j});
      }
      phase.tasks.push_back(std::move(task));
    }
    m.phases.push_back(std::move(phase));
  }

  // One phase per plan stage with the FftPlan footprint algebra, each
  // claiming full coverage of the data buffer.
  const unsigned tw_bits = n / 2 > 1 ? util::ilog2(n / 2) : 0;
  std::vector<std::uint64_t> elems;
  std::vector<std::uint64_t> twiddles;
  for (std::uint32_t s = 0; s < plan.stage_count(); ++s) {
    PhaseModel phase;
    phase.name = "stage" + std::to_string(s);
    phase.full_coverage.push_back(data);
    for (std::uint64_t t = 0; t < plan.tasks_per_stage(); ++t) {
      PipelineTask task;
      task.index = t;
      plan.task_elements(s, t, elems);
      for (std::uint64_t e : elems) {
        task.reads.push_back({data, e});
        task.writes.push_back({data, e});
      }
      plan.task_twiddles(s, t, twiddles);
      for (std::uint64_t i : twiddles)
        task.reads.push_back({tw, twiddle_slot(i, opts.layout, tw_bits)});
      task.flops = plan.flops_per_task(s);
      phase.tasks.push_back(std::move(task));
    }
    m.phases.push_back(std::move(phase));
  }
  return m;
}

PipelineModel build_batch_pipeline(std::uint64_t n, std::uint64_t batch,
                                   const PipelineBuildOptions& opts,
                                   std::string name) {
  if (n < 2 || !util::is_pow2(n) || batch < 1)
    throw std::invalid_argument(
        "build_batch_pipeline: n must be a power of two >= 2 and batch >= 1");
  PipelineModel m =
      make_base(name.empty() ? "batch" : std::move(name), n, opts);
  append_batch_phase(m, n, m.add_buffer("data", batch * n, /*input=*/true),
                     batch, "batch");
  return m;
}

PipelineModel build_hierarchical_pipeline(std::uint64_t n,
                                          const PipelineBuildOptions& opts,
                                          std::string name) {
  PipelineModel m =
      make_base(name.empty() ? "hierarchical" : std::move(name), n, opts);
  const std::uint32_t data = m.add_buffer("data", n, /*input=*/true);
  const std::uint32_t s = m.add_buffer("gather", n, /*input=*/false);
  append_hierarchical_phases(m, n, data, s, opts, "");
  return m;
}

PipelineModel build_mixed_radix_pipeline(std::uint64_t n,
                                         const PipelineBuildOptions& opts,
                                         std::string name) {
  const fft::MixedRadixPlan plan(n);  // throws unless 2 <= n, 7-smooth
  PipelineModel m =
      make_base(name.empty() ? "mixed-radix" : std::move(name), n, opts);
  const std::uint32_t data = m.add_buffer("data", n, /*input=*/true);
  const std::uint32_t tw =
      m.add_buffer("twiddles", plan.twiddle_count(), /*input=*/true);
  const std::uint32_t scratch = m.add_buffer("scratch", n, /*input=*/false);

  // Digit-reversal gather, grained exactly like the runtime phase:
  // scratch[p] = data[perm[p]] over bitrev_sweep_grain chunks.
  {
    PhaseModel phase;
    phase.name = "permute";
    phase.full_coverage.push_back(scratch);
    const auto perm = plan.permutation();
    const fft::SweepGrain grain = fft::bitrev_sweep_grain(n, opts.workers);
    for (std::uint64_t c = 0; c < grain.chunks; ++c) {
      const std::uint64_t begin = c * grain.per;
      if (begin >= n) break;
      const std::uint64_t end = std::min<std::uint64_t>(n, begin + grain.per);
      PipelineTask task;
      task.index = c;
      for (std::uint64_t p = begin; p < end; ++p) {
        task.reads.push_back({data, perm[p]});
        task.writes.push_back({scratch, p});
      }
      phase.tasks.push_back(std::move(task));
    }
    m.phases.push_back(std::move(phase));
  }

  // One phase per stage over its n/r butterflies, chunked to the
  // executor's workers*4 cap. Butterfly g = (b, j) touches the r
  // elements b*L + j + u*L_p and reads the r-1 flat twiddles at
  // twiddle_offset + j*(r-1) + (u-1) — the exact runner index algebra.
  const std::uint32_t stages = plan.stage_count();
  for (std::uint32_t s = 0; s < stages; ++s) {
    const fft::MixedRadixStage& stage = plan.stages()[s];
    const std::uint64_t r = stage.radix;
    const std::uint64_t lp = stage.prev_len;
    const std::uint64_t g_count = n / r;
    const std::uint64_t chunks =
        std::min<std::uint64_t>(g_count, std::uint64_t{opts.workers} * 4);
    const std::uint64_t per = util::ceil_div(g_count, chunks);
    const std::uint32_t src = (s == 0) ? scratch : data;
    PhaseModel phase;
    phase.name = "stage" + std::to_string(s);
    phase.full_coverage.push_back(data);
    for (std::uint64_t c = 0; c < chunks; ++c) {
      const std::uint64_t g_begin = c * per;
      if (g_begin >= g_count) break;
      const std::uint64_t g_end =
          std::min<std::uint64_t>(g_count, g_begin + per);
      PipelineTask task;
      task.index = c;
      for (std::uint64_t g = g_begin; g < g_end; ++g) {
        const std::uint64_t b = g / lp;
        const std::uint64_t j = g % lp;
        const std::uint64_t base = b * stage.len + j;
        for (std::uint64_t u = 0; u < r; ++u) {
          task.reads.push_back({src, base + u * lp});
          task.writes.push_back({data, base + u * lp});
        }
        for (std::uint64_t u = 1; u < r; ++u)
          task.reads.push_back(
              {tw, stage.twiddle_offset + j * (r - 1) + (u - 1)});
      }
      task.flops = (g_end - g_begin) * butterfly_flops(stage.radix);
      phase.tasks.push_back(std::move(task));
    }
    m.phases.push_back(std::move(phase));
  }
  return m;
}

PipelineModel build_bluestein_pipeline(std::uint64_t n,
                                       const PipelineBuildOptions& opts,
                                       std::string name) {
  if (n < 2)
    throw std::invalid_argument("build_bluestein_pipeline: n >= 2 required");
  const std::uint64_t conv_n = fft::bluestein_fft_size(n);
  const bool pipelined =
      fft::routed_plan_kind(conv_n) == fft::PlanKind::kHierarchical;

  PipelineModel m =
      make_base(name.empty() ? "bluestein" : std::move(name), n, opts);
  const std::uint32_t data = m.add_buffer("data", n, /*input=*/true);
  const std::uint32_t chirp = m.add_buffer("chirp", n, /*input=*/true);
  const std::uint32_t bfilter =
      m.add_buffer("chirp-fft", conv_n, /*input=*/true);
  const std::uint32_t conv = m.add_buffer("conv", conv_n, /*input=*/false);
  // Each inner M-point FFT runs as a direct M-point call routes: one
  // whole-transform task, or from the hierarchical threshold on (every
  // N >= 65537) the tile pipeline over one reused gather matrix.
  const std::uint32_t gather =
      pipelined ? m.add_buffer("gather", conv_n, /*input=*/false) : 0;
  const auto inner_fft = [&](const std::string& dir) {
    if (pipelined)
      append_hierarchical_phases(m, conv_n, conv, gather, opts, dir + "-");
    else
      append_batch_phase(m, conv_n, conv, 1, dir + "-fft");
  };

  // Modulate + zero-fill: one serial pass (the executor runs it inline —
  // O(M) noise against the inner FFTs it brackets).
  {
    PhaseModel phase;
    phase.name = "modulate";
    phase.full_coverage.push_back(conv);
    PipelineTask task;
    for (std::uint64_t j = 0; j < n; ++j) {
      task.reads.push_back({data, j});
      task.reads.push_back({chirp, j});
      task.writes.push_back({conv, j});
    }
    for (std::uint64_t j = n; j < conv_n; ++j)
      task.writes.push_back({conv, j});
    task.flops = n * kCplxMulFlops;
    phase.tasks.push_back(std::move(task));
    m.phases.push_back(std::move(phase));
  }

  inner_fft("fwd");

  // Pointwise convolution by the precomputed chirp-filter spectrum.
  {
    PhaseModel phase;
    phase.name = "pointwise";
    phase.full_coverage.push_back(conv);
    PipelineTask task;
    for (std::uint64_t j = 0; j < conv_n; ++j) {
      task.reads.push_back({conv, j});
      task.reads.push_back({bfilter, j});
      task.writes.push_back({conv, j});
    }
    task.flops = conv_n * kCplxMulFlops;
    phase.tasks.push_back(std::move(task));
    m.phases.push_back(std::move(phase));
  }

  inner_fft("inv");

  // Demodulate back into the public buffer, folding in the inner 1/M.
  {
    PhaseModel phase;
    phase.name = "demodulate";
    phase.full_coverage.push_back(data);
    PipelineTask task;
    for (std::uint64_t j = 0; j < n; ++j) {
      task.reads.push_back({conv, j});
      task.reads.push_back({chirp, j});
      task.writes.push_back({data, j});
    }
    task.flops = n * (kCplxMulFlops + 2);
    phase.tasks.push_back(std::move(task));
    m.phases.push_back(std::move(phase));
  }
  return m;
}

PipelineModel build_fft2d_pipeline(std::uint64_t rows, std::uint64_t cols,
                                   const PipelineBuildOptions& opts,
                                   std::string name) {
  const fft::Fft2dShape shape = fft::fft2d_shape(rows * cols, rows, cols);

  PipelineModel m =
      make_base(name.empty() ? "fft2d" : std::move(name), rows * cols, opts);
  const std::uint32_t data = m.add_buffer("data", rows * cols, /*input=*/true);

  // Both sweeps are executor batches: one whole-transform task per row.
  append_batch_phase(m, cols, data, rows, "rows");
  if (shape.square) {
    append_transpose_inplace(m, data, rows, "transpose");
    append_batch_phase(m, rows, data, cols, "cols");
    append_transpose_inplace(m, data, rows, "transpose-back");
  } else {
    const std::uint32_t scratch =
        m.add_buffer("scratch", rows * cols, /*input=*/false);
    append_transpose(m, data, scratch, rows, cols, "transpose");
    append_batch_phase(m, rows, scratch, cols, "cols");
    append_transpose(m, scratch, data, cols, rows, "transpose-back");
  }
  return m;
}

PipelineModel build_real_fft_pipeline(std::uint64_t n,
                                      const PipelineBuildOptions& opts,
                                      std::string name) {
  const fft::RealFftShape shape = fft::real_forward_shape(n);
  PipelineModel m =
      make_base(name.empty() ? "real" : std::move(name), n, opts);
  // The input is real scalars: half the byte width of the complex
  // buffers, so the byte-level bank histogram stays honest.
  const std::uint32_t signal =
      m.add_buffer("signal", n, /*input=*/true, opts.element_bytes / 2);
  const std::uint32_t packed =
      m.add_buffer("packed", shape.half, /*input=*/false);
  const std::uint32_t out =
      m.add_buffer("spectrum", shape.half + 1, /*input=*/false);

  // Pack: one serial pass interleaving even/odd samples.
  {
    PhaseModel phase;
    phase.name = "pack";
    phase.full_coverage.push_back(packed);
    PipelineTask task;
    for (std::uint64_t i = 0; i < shape.half; ++i) {
      task.reads.push_back({signal, 2 * i});
      task.reads.push_back({signal, 2 * i + 1});
      task.writes.push_back({packed, i});
    }
    phase.tasks.push_back(std::move(task));
    m.phases.push_back(std::move(phase));
  }

  // The half-point packed transform: one whole-transform task.
  if (shape.half >= 2) append_batch_phase(m, shape.half, packed, 1, "half-fft");

  // Untangle: one serial pass over the half+1 output bins; bin k reads
  // the conjugate-mirror pair of packed bins the kernel reads.
  {
    PhaseModel phase;
    phase.name = "untangle";
    phase.full_coverage.push_back(out);
    PipelineTask task;
    for (std::uint64_t k = 0; k <= shape.half; ++k) {
      const auto src = fft::real_unpack_sources(k, shape.half);
      task.reads.push_back({packed, src[0]});
      task.reads.push_back({packed, src[1]});
      task.writes.push_back({out, k});
    }
    task.flops = (shape.half + 1) * kUntangleFlopsPerBin;
    phase.tasks.push_back(std::move(task));
    m.phases.push_back(std::move(phase));
  }
  return m;
}

}  // namespace c64fft::analysis
