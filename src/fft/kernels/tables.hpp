#pragma once
// Internal: per-ISA table accessors linked into dispatch.cpp. Each
// translation unit (kernels_scalar.cpp / kernels_avx2.cpp) owns its
// tables so their function pointers are compiled with that TU's ISA
// flags. The SIMD accessors exist only when CMake compiled their TU
// (C64FFT_KERNELS_AVX2 definition); dispatch.cpp aliases missing levels
// to the scalar table.

#include "fft/kernels/dispatch.hpp"

namespace c64fft::fft::kernels::detail {

template <typename T>
const KernelDispatch<T>& scalar_table();

#if defined(C64FFT_KERNELS_AVX2)
template <typename T>
const KernelDispatch<T>& avx2_table();
#endif

}  // namespace c64fft::fft::kernels::detail
