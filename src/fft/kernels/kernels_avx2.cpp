// AVX2 kernel table. This translation unit — and only this one — is
// compiled with -mavx2 -ffp-contract=off (see src/fft/CMakeLists.txt), so
// every function pointer it exports runs 256-bit code while the rest of
// the library stays at the build's baseline ISA. AVX-512 hosts run this
// table too: full 512-bit bodies of the butterfly levels, the complex
// de/interleave and the gathers all lost to these 256-bit bodies under
// codelet-sized working sets (the zmm butterflies by ~15% on
// the whole transform), and an EVEX re-encoding of the same source
// measured a few percent slower than this VEX build.

#define C64FFT_KERNEL_ARCH_NS arch_avx2
#include "fft/kernels/generic_kernels.hpp"
//
#include "fft/kernels/kernels_x86_common.hpp"
#include "fft/kernels/tables.hpp"

namespace c64fft::fft::kernels::detail {

namespace {

template <typename T>
constexpr KernelDispatch<T> kAvx2Table{
    util::IsaLevel::kAvx2,
    "avx2",
    &chain_split_avx2<T>,
    &permute_split_avx2<T>,
    &scatter_merge_avx2<T>,
    &mixed_stage_avx2<T>,
    &transpose_tile_avx2<T>,
};

}  // namespace

template <>
const KernelDispatch<float>& avx2_table<float>() {
  return kAvx2Table<float>;
}

template <>
const KernelDispatch<double>& avx2_table<double>() {
  return kAvx2Table<double>;
}

}  // namespace c64fft::fft::kernels::detail
