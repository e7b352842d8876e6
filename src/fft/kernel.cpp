#include "fft/kernel.hpp"

#include <cassert>

#include "fft/kernels/dispatch.hpp"
#include "fft/kernels/generic_kernels.hpp"
#include "util/bit_ops.hpp"

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
void run_codelet_impl(const FftPlan& plan, std::uint32_t stage, std::uint64_t task,
                      std::span<cplx_t<T>> data, const BasicTwiddleTable<T>& twiddles,
                      BasicKernelScratch<T>& scratch) {
  const StageInfo& st = plan.stage(stage);
  assert(scratch.re.size() >= plan.radix());
  assert(twiddles.fft_size() == plan.size());

  // One table resolve per codelet: every hot loop below runs through the
  // process-active ISA's kernels (scalar table = the historical
  // autovectorized loops, bit-identical by contract).
  const kernels::KernelDispatch<T>& K = kernels::active_kernels<T>();

  for (std::uint64_t c = 0; c < st.chains_per_task; ++c) {
    const std::uint64_t base = plan.chain_base(stage, task, c);
    T* re = scratch.re.data() + c * st.chain_len;
    T* im = scratch.im.data() + c * st.chain_len;
    // Gather, deinterleaved (the simulated machine's "load into
    // scratchpad" plus the split-complex layout the SIMD loops want).
    K.gather_split(data.data() + base, st.chain_stride, st.chain_len, re, im);

    K.chain_split(re, im, st.chain_len, base, st.chain_stride,
                  plan.radix_log2() * stage, st.levels, plan.log2_size(),
                  twiddles, scratch.tw_re.data(), scratch.tw_im.data());

    // Scatter back in place, re-interleaving.
    K.scatter_merge(re, im, st.chain_len, data.data() + base, st.chain_stride);
  }
}

template <typename T>
void run_transform_split_impl(std::span<cplx_t<T>> data,
                              const BasicTwiddleTable<T>& twiddles,
                              std::span<const std::uint32_t> bitrev_idx,
                              T* split) {
  const std::uint64_t n = data.size();
  assert(n >= 2 && util::is_pow2(n));
  assert(bitrev_idx.size() >= n);
  assert(twiddles.fft_size() == n);
  T* const re = split;
  T* const im = split + n;
  T* const tw_re = split + 2 * n;
  T* const tw_im = tw_re + n / 2;

  const kernels::KernelDispatch<T>& K = kernels::active_kernels<T>();

  // Permuted gather: the whole transform deinterleaves into the split
  // planes in one pass (scattered reads stay inside the cache-resident
  // transform).
  K.permute_split(data.data(), bitrev_idx.data(), n, re, im);

  // The whole transform is one chain: level L pairs g with g + 2^L under
  // W[(g mod 2^L) << (log2n - L - 1)], exactly the butterfly each plan
  // stage's strided chains apply, now on contiguous planes that stay hot
  // from the first level to the last.
  const unsigned log2n = util::ilog2(n);
  K.chain_split(re, im, n, /*base=*/0, /*stride=*/1, /*first_level=*/0,
                log2n, log2n, twiddles, tw_re, tw_im);

  // Contiguous re-interleave of the whole transform.
  K.scatter_merge(re, im, n, data.data(), 1);
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

void butterfly_chain_split(double* re, double* im, std::uint64_t len,
                           std::uint64_t base, std::uint64_t stride,
                           std::uint32_t first_level, std::uint32_t levels,
                           unsigned log2n, const TwiddleTable& twiddles,
                           double* tw_re, double* tw_im) {
  kernels::detail::chain_split_generic<double>(re, im, len, base, stride,
                                               first_level, levels, log2n,
                                               twiddles, tw_re, tw_im);
}

void butterfly_chain_split(float* re, float* im, std::uint64_t len,
                           std::uint64_t base, std::uint64_t stride,
                           std::uint32_t first_level, std::uint32_t levels,
                           unsigned log2n, const TwiddleTableF& twiddles,
                           float* tw_re, float* tw_im) {
  kernels::detail::chain_split_generic<float>(re, im, len, base, stride,
                                              first_level, levels, log2n,
                                              twiddles, tw_re, tw_im);
}

void run_codelet(const FftPlan& plan, std::uint32_t stage, std::uint64_t task,
                 std::span<cplx> data, const TwiddleTable& twiddles,
                 KernelScratch& scratch) {
  run_codelet_impl<double>(plan, stage, task, data, twiddles, scratch);
}

void run_codelet(const FftPlan& plan, std::uint32_t stage, std::uint64_t task,
                 std::span<cplx32> data, const TwiddleTableF& twiddles,
                 KernelScratchF& scratch) {
  run_codelet_impl<float>(plan, stage, task, data, twiddles, scratch);
}

void run_transform_split(std::span<cplx> data, const TwiddleTable& twiddles,
                         std::span<const std::uint32_t> bitrev_idx,
                         double* split) {
  run_transform_split_impl<double>(data, twiddles, bitrev_idx, split);
}

void run_transform_split(std::span<cplx32> data, const TwiddleTableF& twiddles,
                         std::span<const std::uint32_t> bitrev_idx,
                         float* split) {
  run_transform_split_impl<float>(data, twiddles, bitrev_idx, split);
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
