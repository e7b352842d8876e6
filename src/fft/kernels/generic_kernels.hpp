#pragma once
// Portable template bodies of every dispatched kernel (dispatch.hpp) plus
// the helpers the SIMD translation units share: the per-group fused
// butterfly micro-bodies (used as scalar tails by the vector kernels) and
// the fused first pass's level count. Every level reads its twiddle span
// in place from the plan entry's per-level planes (fft/twiddle.hpp
// LevelTwiddles): no kernel gathers or indexes a twiddle table.
//
// These are the pre-existing autovectorized loops of kernel.cpp /
// transpose.cpp, moved here verbatim so the scalar table
// IS the historical path: C64FFT_ISA=scalar reproduces the previous
// release bit-for-bit. The leading butterfly levels collapse into one
// straight-line fused pass (radix-8, else radix-4) — a pure loop
// restructuring that performs the same operations on each element in the
// same order, so it is bit-identical to the per-level loops (asserted by
// tests).

#include <cassert>
#include <cstdint>

#include "fft/types.hpp"
#include "util/bit_ops.hpp"

// Each translation unit that includes this header instantiates the
// templates below under its own inline namespace (the SIMD TUs define
// C64FFT_KERNEL_ARCH_NS before including). Without this, the linker would
// COMDAT-fold the instantiations across TUs compiled with different ISA
// flags and could install, e.g., AVX2-compiled code behind the scalar
// table's pointers — breaking the "scalar table runs on any host" rule.
#ifndef C64FFT_KERNEL_ARCH_NS
#define C64FFT_KERNEL_ARCH_NS arch_portable
#endif

namespace c64fft::fft::kernels::detail {
inline namespace C64FFT_KERNEL_ARCH_NS {

/// One split-complex butterfly: the canonical operation sequence every
/// kernel in the library — scalar or SIMD, fused or per-level — performs
/// per element pair. a/b index the lower/upper elements.
template <typename T>
inline void butterfly_split(T* __restrict r, T* __restrict i, std::uint64_t a,
                            std::uint64_t b, T wr, T wi) {
  const T tr = wr * r[b] - wi * i[b];
  const T ti = wr * i[b] + wi * r[b];
  r[b] = r[a] - tr;
  i[b] = i[a] - ti;
  r[a] += tr;
  i[a] += ti;
}

/// Fused radix-8 group: the 12 butterflies of levels v = 0..2 over one
/// 8-element group, in per-level loop order (each element sees the exact
/// operation sequence of the unfused loops). twr/twi hold the 7 twiddles
/// of levels 0..2 back to back (level v's span at offset 2^v - 1).
template <typename T>
inline void fused8_group(T* __restrict r, T* __restrict i,
                         const T* __restrict twr, const T* __restrict twi) {
  butterfly_split(r, i, 0, 1, twr[0], twi[0]);  // v=0, half=1
  butterfly_split(r, i, 2, 3, twr[0], twi[0]);
  butterfly_split(r, i, 4, 5, twr[0], twi[0]);
  butterfly_split(r, i, 6, 7, twr[0], twi[0]);
  butterfly_split(r, i, 0, 2, twr[1], twi[1]);  // v=1, half=2
  butterfly_split(r, i, 1, 3, twr[2], twi[2]);
  butterfly_split(r, i, 4, 6, twr[1], twi[1]);
  butterfly_split(r, i, 5, 7, twr[2], twi[2]);
  butterfly_split(r, i, 0, 4, twr[3], twi[3]);  // v=2, half=4
  butterfly_split(r, i, 1, 5, twr[4], twi[4]);
  butterfly_split(r, i, 2, 6, twr[5], twi[5]);
  butterfly_split(r, i, 3, 7, twr[6], twi[6]);
}

/// Fused radix-4 group: the 4 butterflies of levels v = 0..1 over one
/// 4-element group. twr/twi hold the 3 twiddles of levels 0..1.
template <typename T>
inline void fused4_group(T* __restrict r, T* __restrict i,
                         const T* __restrict twr, const T* __restrict twi) {
  butterfly_split(r, i, 0, 1, twr[0], twi[0]);  // v=0, half=1
  butterfly_split(r, i, 2, 3, twr[0], twi[0]);
  butterfly_split(r, i, 0, 2, twr[1], twi[1]);  // v=1, half=2
  butterfly_split(r, i, 1, 3, twr[2], twi[2]);
}

/// Levels the fused first pass covers: the widest fusion the transform's
/// levels allow (radix-8 from n = 8, radix-4 at n = 4, none at n = 2).
/// The per-level loops resume at this level.
inline unsigned fused_levels(unsigned log2n) {
  return log2n >= 3 ? 3 : (log2n == 2 ? 2 : 0);
}

/// One butterfly level over its twiddle span (tw_re/tw_im hold the `half`
/// twiddles shared by every block). Indexed form, not
/// per-block pointers: recomputing `re + lo + half` style pointers inside
/// the lo loop defeats GCC's dependence analysis ("no vectype") and the
/// butterflies stay scalar; with the affine indices below plus the
/// __restrict parameters the u loop vectorizes at both element widths.
template <typename T>
inline void span_level(T* __restrict re, T* __restrict im, std::uint64_t len,
                       std::uint64_t half, const T* __restrict tw_re,
                       const T* __restrict tw_im) {
  for (std::uint64_t lo = 0; lo < len; lo += 2 * half) {
    for (std::uint64_t u = 0; u < half; ++u) {
      const T tr = tw_re[u] * re[lo + half + u] - tw_im[u] * im[lo + half + u];
      const T ti = tw_re[u] * im[lo + half + u] + tw_im[u] * re[lo + half + u];
      re[lo + half + u] = re[lo + u] - tr;
      im[lo + half + u] = im[lo + u] - ti;
      re[lo + u] += tr;
      im[lo + u] += ti;
    }
  }
}

// ---- Portable kernel bodies (the scalar dispatch table) ----

template <typename T>
void chain_split_generic(T* __restrict re, T* __restrict im, std::uint64_t n,
                         const T* __restrict tw_re,
                         const T* __restrict tw_im) {
  assert(util::is_pow2(n));
  const unsigned log2n = util::ilog2(n);

  // Fused first pass: levels with half = 1/2/4 run 1-4 scalar butterflies
  // per block in the per-level loops below — pure loop overhead the
  // vectorizer can't touch. Their twiddles are shared across blocks, so
  // each 2^f-element group becomes one straight-line body the SLP
  // vectorizer packs at the full register width.
  const unsigned fuse = fused_levels(log2n);
  if (fuse == 3) {
    for (std::uint64_t g = 0; g < n; g += 8)
      fused8_group<T>(re + g, im + g, tw_re + 1, tw_im + 1);
  } else if (fuse == 2) {
    for (std::uint64_t g = 0; g < n; g += 4)
      fused4_group<T>(re + g, im + g, tw_re + 1, tw_im + 1);
  }

  for (unsigned v = fuse; v < log2n; ++v) {
    const std::uint64_t half = std::uint64_t{1} << v;
    span_level<T>(re, im, n, half, tw_re + half, tw_im + half);
  }
}

template <typename T>
void permute_split_generic(const cplx_t<T>* __restrict src,
                           const std::uint32_t* __restrict idx,
                           std::uint64_t count, T* __restrict re,
                           T* __restrict im) {
  for (std::uint64_t q = 0; q < count; ++q) {
    const cplx_t<T> x = src[idx[q]];
    re[q] = x.real();
    im[q] = x.imag();
  }
}

template <typename T>
void scatter_merge_generic(const T* __restrict re, const T* __restrict im,
                           std::uint64_t count, cplx_t<T>* __restrict dst) {
  for (std::uint64_t q = 0; q < count; ++q) dst[q] = cplx_t<T>(re[q], im[q]);
}

template <typename T>
void transpose_tile_generic(const cplx_t<T>* __restrict src,
                            cplx_t<T>* __restrict dst, std::uint64_t src_stride,
                            std::uint64_t dst_stride, std::uint64_t rows,
                            std::uint64_t cols) {
  for (std::uint64_t r = 0; r < rows; ++r)
    for (std::uint64_t c = 0; c < cols; ++c)
      dst[c * dst_stride + r] = src[r * src_stride + c];
}

}  // inline namespace C64FFT_KERNEL_ARCH_NS
}  // namespace c64fft::fft::kernels::detail
