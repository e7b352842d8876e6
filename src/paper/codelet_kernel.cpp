#include "paper/codelet_kernel.hpp"

#include <cassert>

namespace c64fft::fft {
namespace {

template <typename T>
void chain_impl(std::span<cplx_t<T>> chain, std::uint64_t base, std::uint64_t stride,
                std::uint32_t first_level, std::uint32_t levels, unsigned log2n,
                const BasicTwiddleTable<T>& twiddles) {
  const std::uint64_t len = chain.size();
  assert(len == (std::uint64_t{1} << levels));
  for (std::uint32_t v = 0; v < levels; ++v) {
    const std::uint64_t half = std::uint64_t{1} << v;
    const std::uint32_t level = first_level + v;  // global butterfly level L
    const std::uint64_t block_mask = (std::uint64_t{1} << level) - 1;
    const unsigned shift = log2n - level - 1;
    for (std::uint64_t lo = 0; lo < len; lo += 2 * half) {
      for (std::uint64_t q = lo; q < lo + half; ++q) {
        // Twiddle of the butterfly whose lower element has global index g:
        // W[(g mod 2^L) << (n - L - 1)].
        const std::uint64_t g = base + q * stride;
        const cplx_t<T> w = twiddles.at((g & block_mask) << shift);
        const cplx_t<T> t = w * chain[q + half];
        chain[q + half] = chain[q] - t;
        chain[q] += t;
      }
    }
  }
}

template <typename T>
void run_codelet_scalar_impl(const FftPlan& plan, std::uint32_t stage,
                             std::uint64_t task, std::span<cplx_t<T>> data,
                             const BasicTwiddleTable<T>& twiddles,
                             std::span<cplx_t<T>> scratch) {
  const StageInfo& st = plan.stage(stage);
  assert(scratch.size() >= plan.radix());
  assert(twiddles.fft_size() == plan.size());

  for (std::uint64_t c = 0; c < st.chains_per_task; ++c) {
    const std::uint64_t base = plan.chain_base(stage, task, c);
    cplx_t<T>* local = scratch.data() + c * st.chain_len;
    // Gather (the simulated machine's "load into scratchpad").
    for (std::uint64_t q = 0; q < st.chain_len; ++q)
      local[q] = data[base + q * st.chain_stride];

    chain_impl<T>({local, st.chain_len}, base, st.chain_stride,
                  plan.radix_log2() * stage, st.levels, plan.log2_size(), twiddles);

    // Scatter back in place.
    for (std::uint64_t q = 0; q < st.chain_len; ++q)
      data[base + q * st.chain_stride] = local[q];
  }
}

}  // namespace

void butterfly_chain(std::span<cplx> chain, std::uint64_t base, std::uint64_t stride,
                     std::uint32_t first_level, std::uint32_t levels, unsigned log2n,
                     const TwiddleTable& twiddles) {
  chain_impl<double>(chain, base, stride, first_level, levels, log2n, twiddles);
}

void butterfly_chain(std::span<cplx32> chain, std::uint64_t base,
                     std::uint64_t stride, std::uint32_t first_level,
                     std::uint32_t levels, unsigned log2n,
                     const TwiddleTableF& twiddles) {
  chain_impl<float>(chain, base, stride, first_level, levels, log2n, twiddles);
}

void run_codelet_scalar(const FftPlan& plan, std::uint32_t stage, std::uint64_t task,
                        std::span<cplx> data, const TwiddleTable& twiddles,
                        std::span<cplx> scratch) {
  run_codelet_scalar_impl<double>(plan, stage, task, data, twiddles, scratch);
}

void run_codelet_scalar(const FftPlan& plan, std::uint32_t stage, std::uint64_t task,
                        std::span<cplx32> data, const TwiddleTableF& twiddles,
                        std::span<cplx32> scratch) {
  run_codelet_scalar_impl<float>(plan, stage, task, data, twiddles, scratch);
}

}  // namespace c64fft::fft
