#include "analysis/tile_traffic.hpp"

#include <algorithm>
#include <string>

namespace c64fft::analysis {

namespace {

/// Movement passes of one task: the explicit builder value when set,
/// otherwise derived from the footprint — a task with no flops only
/// moves data; a task with flops is in-place butterfly work unless it
/// writes a buffer it never reads (an out-of-place single pass such as
/// mixed-radix stage 0 or the Bluestein chirp modulation), which charges
/// one movement pass.
std::uint64_t movement_passes_of(const PipelineTask& task) {
  if (task.movement_passes != PipelineTask::kAutoMovement)
    return std::min(task.movement_passes, task.passes);
  if (task.flops == 0) return task.passes;
  std::uint64_t read_mask = 0;
  for (const Access& a : task.reads)
    if (a.buffer < 64) read_mask |= std::uint64_t{1} << a.buffer;
  for (const Access& a : task.writes)
    if (a.buffer >= 64 || (read_mask & (std::uint64_t{1} << a.buffer)) == 0)
      return 1;
  return 0;
}

std::uint64_t footprint_bytes(const PipelineModel& model,
                              const PipelineTask& task) {
  std::uint64_t bytes = 0;
  for (const Access& a : task.reads) bytes += model.buffer_element_bytes(a.buffer);
  for (const Access& a : task.writes) bytes += model.buffer_element_bytes(a.buffer);
  return bytes;
}

}  // namespace

CheckResult report_tile_traffic(const PipelineModel& model,
                                const TileTrafficOptions& opts) {
  CheckResult result;
  result.name = "tile-traffic";

  std::uint64_t total_transpose = 0;
  std::uint64_t total_butterfly = 0;
  double worst_imbalance = 0.0;

  for (std::size_t p = 0; p < model.phases.size(); ++p) {
    const PhaseModel& phase = model.phases[p];
    std::uint64_t phase_transpose = 0;
    std::uint64_t phase_butterfly = 0;
    std::uint64_t phase_bytes = 0;
    std::uint64_t max_task_bytes = 0;
    std::uint64_t max_task_index = 0;
    for (const PipelineTask& task : phase.tasks) {
      const std::uint64_t fp = footprint_bytes(model, task);
      const std::uint64_t movement = movement_passes_of(task);
      phase_transpose += movement * fp;
      phase_butterfly += (task.passes - movement) * fp;
      const std::uint64_t task_bytes = task.passes * fp;
      phase_bytes += task_bytes;
      if (task_bytes > max_task_bytes) {
        max_task_bytes = task_bytes;
        max_task_index = task.index;
      }
    }
    total_transpose += phase_transpose;
    total_butterfly += phase_butterfly;

    const std::string key = "phase" + std::to_string(p) + "_";
    result.metrics[key + "transpose_bytes"] =
        static_cast<double>(phase_transpose);
    result.metrics[key + "butterfly_bytes"] =
        static_cast<double>(phase_butterfly);

    if (phase.tasks.size() < 2 || phase_bytes == 0) continue;
    const double mean =
        static_cast<double>(phase_bytes) / static_cast<double>(phase.tasks.size());
    const double imbalance = static_cast<double>(max_task_bytes) / mean;
    result.metrics[key + "traffic_imbalance"] = imbalance;
    worst_imbalance = std::max(worst_imbalance, imbalance);
    if (imbalance > opts.imbalance_threshold &&
        result.diagnostics.size() < opts.max_diagnostics) {
      result.add(opts.strict ? Severity::kError : Severity::kWarning,
                 "tile-traffic-imbalance",
                 "phase '" + phase.name + "': task " +
                     std::to_string(max_task_index) + " streams " +
                     std::to_string(max_task_bytes) + " bytes, " +
                     std::to_string(imbalance) + "x the phase mean",
                 {static_cast<std::uint32_t>(p), max_task_index});
    }
  }

  const std::uint64_t total = total_transpose + total_butterfly;
  result.metrics["transpose_bytes"] = static_cast<double>(total_transpose);
  result.metrics["butterfly_bytes"] = static_cast<double>(total_butterfly);
  result.metrics["total_bytes"] = static_cast<double>(total);
  result.metrics["transpose_fraction"] =
      total != 0 ? static_cast<double>(total_transpose) / static_cast<double>(total)
                 : 0.0;
  result.metrics["max_traffic_imbalance"] = worst_imbalance;
  result.finalize();
  return result;
}

}  // namespace c64fft::analysis
