#pragma once
// AVX2 intrinsic kernel bodies of kernels_avx2.cpp (AVX-512 hosts run
// them too). Everything lives in an anonymous namespace ON PURPOSE: the
// including TU is compiled with -mavx2, and internal linkage guarantees
// no copy of these bodies is ever COMDAT-folded with a same-named
// function built at the baseline ISA — which could otherwise install
// AVX2 code behind a table that must run on hosts lacking it.
//
// Numerics: one butterfly (or one element) per lane, scalar operation
// order — multiply, subtract, add, never FMA (the including TUs are built
// with -ffp-contract=off, and -mavx2 does not enable -mfma
// codegen for these explicit mul/add intrinsics). Shuffles and
// transposes only move lanes. Results are bit-identical to the portable
// kernels for finite data.
//
// The including TU must define C64FFT_KERNEL_ARCH_NS and include
// "fft/kernels/generic_kernels.hpp" BEFORE this header so the scalar
// helpers (fused tails, narrow levels) resolve to that TU's arch
// namespace.

#include <immintrin.h>

#include <algorithm>
#include <cstdint>
#include <numbers>

#include "fft/kernels/generic_kernels.hpp"
#include "fft/mixed_radix.hpp"
#include "fft/types.hpp"

namespace c64fft::fft::kernels::detail {
namespace {

// ---- Register transposes (pure lane moves, exact) ----

/// 8x8 f32 in-register transpose: r[j] = row j on entry, column j on exit.
inline void transpose8x8_ps(__m256 r[8]) {
  const __m256 t0 = _mm256_unpacklo_ps(r[0], r[1]);
  const __m256 t1 = _mm256_unpackhi_ps(r[0], r[1]);
  const __m256 t2 = _mm256_unpacklo_ps(r[2], r[3]);
  const __m256 t3 = _mm256_unpackhi_ps(r[2], r[3]);
  const __m256 t4 = _mm256_unpacklo_ps(r[4], r[5]);
  const __m256 t5 = _mm256_unpackhi_ps(r[4], r[5]);
  const __m256 t6 = _mm256_unpacklo_ps(r[6], r[7]);
  const __m256 t7 = _mm256_unpackhi_ps(r[6], r[7]);
  const __m256 s0 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s1 = _mm256_shuffle_ps(t0, t2, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s2 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s3 = _mm256_shuffle_ps(t1, t3, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s4 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s5 = _mm256_shuffle_ps(t4, t6, _MM_SHUFFLE(3, 2, 3, 2));
  const __m256 s6 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(1, 0, 1, 0));
  const __m256 s7 = _mm256_shuffle_ps(t5, t7, _MM_SHUFFLE(3, 2, 3, 2));
  r[0] = _mm256_permute2f128_ps(s0, s4, 0x20);
  r[1] = _mm256_permute2f128_ps(s1, s5, 0x20);
  r[2] = _mm256_permute2f128_ps(s2, s6, 0x20);
  r[3] = _mm256_permute2f128_ps(s3, s7, 0x20);
  r[4] = _mm256_permute2f128_ps(s0, s4, 0x31);
  r[5] = _mm256_permute2f128_ps(s1, s5, 0x31);
  r[6] = _mm256_permute2f128_ps(s2, s6, 0x31);
  r[7] = _mm256_permute2f128_ps(s3, s7, 0x31);
}

/// 4x4 f64 in-register transpose.
inline void transpose4x4_pd(__m256d r[4]) {
  const __m256d t0 = _mm256_unpacklo_pd(r[0], r[1]);
  const __m256d t1 = _mm256_unpackhi_pd(r[0], r[1]);
  const __m256d t2 = _mm256_unpacklo_pd(r[2], r[3]);
  const __m256d t3 = _mm256_unpackhi_pd(r[2], r[3]);
  r[0] = _mm256_permute2f128_pd(t0, t2, 0x20);
  r[1] = _mm256_permute2f128_pd(t1, t3, 0x20);
  r[2] = _mm256_permute2f128_pd(t0, t2, 0x31);
  r[3] = _mm256_permute2f128_pd(t1, t3, 0x31);
}

// ---- Vector butterflies (element a/b of W independent chains per lane) ----

inline void bf_ps(__m256 r[8], __m256 i[8], int a, int b, float wr, float wi) {
  const __m256 vwr = _mm256_set1_ps(wr);
  const __m256 vwi = _mm256_set1_ps(wi);
  const __m256 tr = _mm256_sub_ps(_mm256_mul_ps(vwr, r[b]), _mm256_mul_ps(vwi, i[b]));
  const __m256 ti = _mm256_add_ps(_mm256_mul_ps(vwr, i[b]), _mm256_mul_ps(vwi, r[b]));
  r[b] = _mm256_sub_ps(r[a], tr);
  i[b] = _mm256_sub_ps(i[a], ti);
  r[a] = _mm256_add_ps(r[a], tr);
  i[a] = _mm256_add_ps(i[a], ti);
}

inline void bf_pd(__m256d r[8], __m256d i[8], int a, int b, double wr, double wi) {
  const __m256d vwr = _mm256_set1_pd(wr);
  const __m256d vwi = _mm256_set1_pd(wi);
  const __m256d tr = _mm256_sub_pd(_mm256_mul_pd(vwr, r[b]), _mm256_mul_pd(vwi, i[b]));
  const __m256d ti = _mm256_add_pd(_mm256_mul_pd(vwr, i[b]), _mm256_mul_pd(vwi, r[b]));
  r[b] = _mm256_sub_pd(r[a], tr);
  i[b] = _mm256_sub_pd(i[a], ti);
  r[a] = _mm256_add_pd(r[a], tr);
  i[a] = _mm256_add_pd(i[a], ti);
}

/// The 12 butterflies of a fused radix-8 group over register-resident
/// element slices x?[j] = element j of each lane's group. Same order as
/// detail::fused8_group.
template <typename V, typename BF, typename T>
inline void fused8_regs(V xr[8], V xi[8], const T* twr, const T* twi, BF&& bf) {
  bf(xr, xi, 0, 1, twr[0], twi[0]);
  bf(xr, xi, 2, 3, twr[0], twi[0]);
  bf(xr, xi, 4, 5, twr[0], twi[0]);
  bf(xr, xi, 6, 7, twr[0], twi[0]);
  bf(xr, xi, 0, 2, twr[1], twi[1]);
  bf(xr, xi, 1, 3, twr[2], twi[2]);
  bf(xr, xi, 4, 6, twr[1], twi[1]);
  bf(xr, xi, 5, 7, twr[2], twi[2]);
  bf(xr, xi, 0, 4, twr[3], twi[3]);
  bf(xr, xi, 1, 5, twr[4], twi[4]);
  bf(xr, xi, 2, 6, twr[5], twi[5]);
  bf(xr, xi, 3, 7, twr[6], twi[6]);
}

// ---- Register-blocked fused radix-8 first pass ----

/// f32: 8 groups of 8 at a time — 8x8 transpose puts element j of all 8
/// groups in one register, the 12 butterflies run on full vectors, and
/// the transpose back restores group-contiguous layout.
inline void fused8_pass_avx2(float* re, float* im, std::uint64_t len,
                             const float* twr, const float* twi) {
  std::uint64_t g = 0;
  for (; g + 64 <= len; g += 64) {
    __m256 xr[8], xi[8];
    for (int j = 0; j < 8; ++j) {
      xr[j] = _mm256_loadu_ps(re + g + 8 * j);
      xi[j] = _mm256_loadu_ps(im + g + 8 * j);
    }
    transpose8x8_ps(xr);
    transpose8x8_ps(xi);
    fused8_regs(xr, xi, twr, twi, [](__m256 r[8], __m256 i[8], int a, int b,
                                     float wr, float wi) { bf_ps(r, i, a, b, wr, wi); });
    transpose8x8_ps(xr);
    transpose8x8_ps(xi);
    for (int j = 0; j < 8; ++j) {
      _mm256_storeu_ps(re + g + 8 * j, xr[j]);
      _mm256_storeu_ps(im + g + 8 * j, xi[j]);
    }
  }
  for (; g < len; g += 8) fused8_group<float>(re + g, im + g, twr, twi);
}

/// f64: 4 groups of 8 at a time — two 4x4 transposes (low/high half of
/// each group) produce the eight element slices.
inline void fused8_pass_avx2(double* re, double* im, std::uint64_t len,
                             const double* twr, const double* twi) {
  std::uint64_t g = 0;
  for (; g + 32 <= len; g += 32) {
    __m256d xr[8], xi[8];
    for (int k = 0; k < 4; ++k) {
      xr[k] = _mm256_loadu_pd(re + g + 8 * k);
      xr[4 + k] = _mm256_loadu_pd(re + g + 8 * k + 4);
      xi[k] = _mm256_loadu_pd(im + g + 8 * k);
      xi[4 + k] = _mm256_loadu_pd(im + g + 8 * k + 4);
    }
    transpose4x4_pd(xr);
    transpose4x4_pd(xr + 4);
    transpose4x4_pd(xi);
    transpose4x4_pd(xi + 4);
    fused8_regs(xr, xi, twr, twi, [](__m256d r[8], __m256d i[8], int a, int b,
                                     double wr, double wi) { bf_pd(r, i, a, b, wr, wi); });
    transpose4x4_pd(xr);
    transpose4x4_pd(xr + 4);
    transpose4x4_pd(xi);
    transpose4x4_pd(xi + 4);
    for (int k = 0; k < 4; ++k) {
      _mm256_storeu_pd(re + g + 8 * k, xr[k]);
      _mm256_storeu_pd(re + g + 8 * k + 4, xr[4 + k]);
      _mm256_storeu_pd(im + g + 8 * k, xi[k]);
      _mm256_storeu_pd(im + g + 8 * k + 4, xi[4 + k]);
    }
  }
  for (; g < len; g += 8) fused8_group<double>(re + g, im + g, twr, twi);
}

// ---- 256-bit shared-twiddle butterfly level (half must be a multiple of
// the vector width) ----

inline void span_level_avx2(float* re, float* im, std::uint64_t len,
                            std::uint64_t half, const float* tw_re,
                            const float* tw_im) {
  for (std::uint64_t lo = 0; lo < len; lo += 2 * half) {
    for (std::uint64_t u = 0; u < half; u += 8) {
      const __m256 wr = _mm256_loadu_ps(tw_re + u);
      const __m256 wi = _mm256_loadu_ps(tw_im + u);
      const __m256 ar = _mm256_loadu_ps(re + lo + u);
      const __m256 ai = _mm256_loadu_ps(im + lo + u);
      const __m256 br = _mm256_loadu_ps(re + lo + half + u);
      const __m256 bi = _mm256_loadu_ps(im + lo + half + u);
      const __m256 tr = _mm256_sub_ps(_mm256_mul_ps(wr, br), _mm256_mul_ps(wi, bi));
      const __m256 ti = _mm256_add_ps(_mm256_mul_ps(wr, bi), _mm256_mul_ps(wi, br));
      _mm256_storeu_ps(re + lo + half + u, _mm256_sub_ps(ar, tr));
      _mm256_storeu_ps(im + lo + half + u, _mm256_sub_ps(ai, ti));
      _mm256_storeu_ps(re + lo + u, _mm256_add_ps(ar, tr));
      _mm256_storeu_ps(im + lo + u, _mm256_add_ps(ai, ti));
    }
  }
}

inline void span_level_avx2(double* re, double* im, std::uint64_t len,
                            std::uint64_t half, const double* tw_re,
                            const double* tw_im) {
  for (std::uint64_t lo = 0; lo < len; lo += 2 * half) {
    for (std::uint64_t u = 0; u < half; u += 4) {
      const __m256d wr = _mm256_loadu_pd(tw_re + u);
      const __m256d wi = _mm256_loadu_pd(tw_im + u);
      const __m256d ar = _mm256_loadu_pd(re + lo + u);
      const __m256d ai = _mm256_loadu_pd(im + lo + u);
      const __m256d br = _mm256_loadu_pd(re + lo + half + u);
      const __m256d bi = _mm256_loadu_pd(im + lo + half + u);
      const __m256d tr = _mm256_sub_pd(_mm256_mul_pd(wr, br), _mm256_mul_pd(wi, bi));
      const __m256d ti = _mm256_add_pd(_mm256_mul_pd(wr, bi), _mm256_mul_pd(wi, br));
      _mm256_storeu_pd(re + lo + half + u, _mm256_sub_pd(ar, tr));
      _mm256_storeu_pd(im + lo + half + u, _mm256_sub_pd(ai, ti));
      _mm256_storeu_pd(re + lo + u, _mm256_add_pd(ar, tr));
      _mm256_storeu_pd(im + lo + u, _mm256_add_pd(ai, ti));
    }
  }
}

template <typename T>
inline constexpr std::uint64_t kAvx2Width = 32 / sizeof(T);

// ---- chain_split: fused register-blocked first pass + wide levels ----

template <typename T>
void chain_split_avx2(T* re, T* im, std::uint64_t n, const T* tw_re,
                      const T* tw_im) {
  const unsigned log2n = util::ilog2(n);
  const unsigned fuse = fused_levels(log2n);
  if (fuse == 3) {
    fused8_pass_avx2(re, im, n, tw_re + 1, tw_im + 1);
  } else if (fuse == 2) {
    for (std::uint64_t g = 0; g < n; g += 4)
      fused4_group<T>(re + g, im + g, tw_re + 1, tw_im + 1);
  }

  for (unsigned v = fuse; v < log2n; ++v) {
    const std::uint64_t half = std::uint64_t{1} << v;
    if (half >= kAvx2Width<T>)
      span_level_avx2(re, im, n, half, tw_re + half, tw_im + half);
    else
      span_level<T>(re, im, n, half, tw_re + half, tw_im + half);
  }
}

// ---- Complex re-interleave (the sweep's closing scatter) ----

inline void interleave8_ps(const float* re, const float* im, float* dst) {
  // Swapping qwords 1 and 2 lines re and im up so the in-lane unpacks
  // emit the (re, im) pairs in order.
  const __m256 a = _mm256_castpd_ps(_mm256_permute4x64_pd(
      _mm256_castps_pd(_mm256_loadu_ps(re)), _MM_SHUFFLE(3, 1, 2, 0)));
  const __m256 b = _mm256_castpd_ps(_mm256_permute4x64_pd(
      _mm256_castps_pd(_mm256_loadu_ps(im)), _MM_SHUFFLE(3, 1, 2, 0)));
  _mm256_storeu_ps(dst, _mm256_unpacklo_ps(a, b));
  _mm256_storeu_ps(dst + 8, _mm256_unpackhi_ps(a, b));
}

inline void interleave4_pd(const double* re, const double* im, double* dst) {
  const __m256d r = _mm256_loadu_pd(re);
  const __m256d i = _mm256_loadu_pd(im);
  const __m256d t0 = _mm256_unpacklo_pd(r, i);  // r0 i0 | r2 i2
  const __m256d t1 = _mm256_unpackhi_pd(r, i);  // r1 i1 | r3 i3
  _mm256_storeu_pd(dst, _mm256_permute2f128_pd(t0, t1, 0x20));
  _mm256_storeu_pd(dst + 4, _mm256_permute2f128_pd(t0, t1, 0x31));
}

// ---- Bit-reversal permuted split loads ----
//
// re/im[q] = src[idx[q]]: the index vector comes from memory (the cached
// bit-reversal table), and each vector takes two gathers, one per
// component. Gathers are plain loads — lane moves only, bit-identical to
// the scalar loop. idx entries are < 2^30 by the dispatch contract, so
// doubling into scalar-component indices cannot overflow i32.

inline void permute_split_x86(const cplx_t<float>* src,
                              const std::uint32_t* idx, std::uint64_t count,
                              float* re, float* im) {
  const float* s = reinterpret_cast<const float*>(src);
  const __m256i one = _mm256_set1_epi32(1);
  std::uint64_t q = 0;
  for (; q + 8 <= count; q += 8) {
    const __m256i fi = _mm256_slli_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(idx + q)), 1);
    _mm256_storeu_ps(re + q, _mm256_i32gather_ps(s, fi, 4));
    _mm256_storeu_ps(im + q,
                     _mm256_i32gather_ps(s, _mm256_add_epi32(fi, one), 4));
  }
  for (; q < count; ++q) {
    const cplx_t<float> x = src[idx[q]];
    re[q] = x.real();
    im[q] = x.imag();
  }
}

inline void permute_split_x86(const cplx_t<double>* src,
                              const std::uint32_t* idx, std::uint64_t count,
                              double* re, double* im) {
  const double* s = reinterpret_cast<const double*>(src);
  const __m128i one = _mm_set1_epi32(1);
  std::uint64_t q = 0;
  for (; q + 4 <= count; q += 4) {
    const __m128i fi = _mm_slli_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx + q)), 1);
    _mm256_storeu_pd(re + q, _mm256_i32gather_pd(s, fi, 8));
    _mm256_storeu_pd(im + q,
                     _mm256_i32gather_pd(s, _mm_add_epi32(fi, one), 8));
  }
  for (; q < count; ++q) {
    const cplx_t<double> x = src[idx[q]];
    re[q] = x.real();
    im[q] = x.imag();
  }
}

template <typename T>
void permute_split_avx2(const cplx_t<T>* src, const std::uint32_t* idx,
                        std::uint64_t count, T* re, T* im) {
  permute_split_x86(src, idx, count, re, im);
}

template <typename T>
void scatter_merge_avx2(const T* re, const T* im, std::uint64_t count,
                        cplx_t<T>* dst) {
  const std::uint64_t w = kAvx2Width<T>;
  T* d = reinterpret_cast<T*>(dst);
  std::uint64_t q = 0;
  for (; q + w <= count; q += w) {
    if constexpr (sizeof(T) == 4)
      interleave8_ps(re + q, im + q, d + 2 * q);
    else
      interleave4_pd(re + q, im + q, d + 2 * q);
  }
  for (; q < count; ++q) dst[q] = cplx_t<T>(re[q], im[q]);
}

// ---- Mixed-radix stage butterflies ----
//
// One butterfly per lane on interleaved complex lanes (2 per __m256d, 4
// per __m256), the lanes taking consecutive offsets j of one block so
// every leg load and store stays contiguous. Each lane repeats the operation
// sequence of mixed_stage_scalar; the complex product comes out as
// (xr*wr - xi*wi, xi*wr + xr*wi) from one addsub — the scalar cmul's
// products, with its imaginary sum's operands swapped, which IEEE
// addition leaves exact.

/// Interleaved complex lanes of one precision.
template <typename T>
struct CxLanes;

template <>
struct CxLanes<double> {
  using V = __m256d;
  static constexpr unsigned kLanes = 2;
  static V load(const cplx_t<double>* p) {
    return _mm256_loadu_pd(reinterpret_cast<const double*>(p));
  }
  static void store(cplx_t<double>* p, V v) {
    _mm256_storeu_pd(reinterpret_cast<double*>(p), v);
  }
  /// Lane l takes p[l * stride] (stride 0 broadcasts *p).
  static V load_strided(const cplx_t<double>* p, std::uint64_t stride) {
    return _mm256_loadu2_m128d(reinterpret_cast<const double*>(p + stride),
                               reinterpret_cast<const double*>(p));
  }
  /// Lane l goes to p[l * stride].
  static void store_strided(cplx_t<double>* p, std::uint64_t stride, V v) {
    _mm256_storeu2_m128d(reinterpret_cast<double*>(p + stride),
                         reinterpret_cast<double*>(p), v);
  }
  static V set1(double c) { return _mm256_set1_pd(c); }
  static V zero() { return _mm256_setzero_pd(); }
  static V add(V a, V b) { return _mm256_add_pd(a, b); }
  static V sub(V a, V b) { return _mm256_sub_pd(a, b); }
  static V mul(V a, V b) { return _mm256_mul_pd(a, b); }
  /// (re - re, im + im) lane pairs.
  static V addsub(V a, V b) { return _mm256_addsub_pd(a, b); }
  static V neg(V a) { return _mm256_xor_pd(a, _mm256_set1_pd(-0.0)); }
  /// (im, re): the two parts of every complex lane swapped.
  static V swap(V a) { return _mm256_permute_pd(a, 0x5); }
  static V dup_re(V a) { return _mm256_movedup_pd(a); }
  static V dup_im(V a) { return _mm256_permute_pd(a, 0xF); }
  /// Real parts of a, imaginary parts of b.
  static V re_im(V a, V b) { return _mm256_blend_pd(a, b, 0xA); }
};

template <>
struct CxLanes<float> {
  using V = __m256;
  static constexpr unsigned kLanes = 4;
  static V load(const cplx_t<float>* p) {
    return _mm256_loadu_ps(reinterpret_cast<const float*>(p));
  }
  static void store(cplx_t<float>* p, V v) {
    _mm256_storeu_ps(reinterpret_cast<float*>(p), v);
  }
  static V load_strided(const cplx_t<float>* p, std::uint64_t stride) {
    const auto at = [&](std::uint64_t l) {
      return reinterpret_cast<const __m64*>(p + l * stride);
    };
    const __m128 lo = _mm_loadh_pi(_mm_loadl_pi(_mm_setzero_ps(), at(0)), at(1));
    const __m128 hi = _mm_loadh_pi(_mm_loadl_pi(_mm_setzero_ps(), at(2)), at(3));
    return _mm256_set_m128(hi, lo);
  }
  static void store_strided(cplx_t<float>* p, std::uint64_t stride, V v) {
    const auto at = [&](std::uint64_t l) {
      return reinterpret_cast<__m64*>(p + l * stride);
    };
    const __m128 lo = _mm256_castps256_ps128(v);
    const __m128 hi = _mm256_extractf128_ps(v, 1);
    _mm_storel_pi(at(0), lo);
    _mm_storeh_pi(at(1), lo);
    _mm_storel_pi(at(2), hi);
    _mm_storeh_pi(at(3), hi);
  }
  static V set1(float c) { return _mm256_set1_ps(c); }
  static V zero() { return _mm256_setzero_ps(); }
  static V add(V a, V b) { return _mm256_add_ps(a, b); }
  static V sub(V a, V b) { return _mm256_sub_ps(a, b); }
  static V mul(V a, V b) { return _mm256_mul_ps(a, b); }
  static V addsub(V a, V b) { return _mm256_addsub_ps(a, b); }
  static V neg(V a) { return _mm256_xor_ps(a, _mm256_set1_ps(-0.0f)); }
  static V swap(V a) { return _mm256_permute_ps(a, 0xB1); }
  static V dup_re(V a) { return _mm256_moveldup_ps(a); }
  static V dup_im(V a) { return _mm256_movehdup_ps(a); }
  static V re_im(V a, V b) { return _mm256_blend_ps(a, b, 0xAA); }
};

/// x * w with w given as its broadcast real and imaginary parts.
template <typename X>
inline typename X::V cx_mul(typename X::V x, typename X::V wr,
                            typename X::V wi) {
  return X::addsub(X::mul(x, wr), X::mul(X::swap(x), wi));
}

/// The closing pair of every radix-4 and odd-radix output:
/// lo = (m.re + d.im, m.im - d.re), hi = (m.re - d.im, m.im + d.re), with
/// d negated first for the inverse direction.
template <typename X>
inline void cx_cross(typename X::V m, typename X::V d, bool inverse,
                     typename X::V& lo, typename X::V& hi) {
  const typename X::V ds = X::swap(inverse ? X::neg(d) : d);
  const typename X::V s = X::add(m, ds);
  const typename X::V t = X::sub(m, ds);
  lo = X::re_im(s, t);
  hi = X::re_im(t, s);
}

template <typename X>
inline void mixed_bfly4(typename X::V* v, bool inverse) {
  const typename X::V a = X::add(v[0], v[2]);
  const typename X::V b = X::sub(v[0], v[2]);
  const typename X::V c = X::add(v[1], v[3]);
  const typename X::V d = X::sub(v[1], v[3]);
  v[0] = X::add(a, c);
  v[2] = X::sub(a, c);
  cx_cross<X>(b, d, inverse, v[1], v[3]);
}

template <typename X, typename T>
inline void mixed_bfly8(typename X::V* v, bool inverse) {
  using V = typename X::V;
  V e[4] = {v[0], v[2], v[4], v[6]};
  V o[4] = {v[1], v[3], v[5], v[7]};
  mixed_bfly4<X>(e, inverse);
  mixed_bfly4<X>(o, inverse);
  const T c = static_cast<T>(std::numbers::sqrt2 / 2.0);
  const T sgn = inverse ? T(1) : T(-1);
  const V t1 = cx_mul<X>(o[1], X::set1(c), X::set1(sgn * c));
  const V sw = X::swap(o[2]);
  const V t2 = inverse ? X::re_im(X::neg(sw), sw) : X::re_im(sw, X::neg(sw));
  const V t3 = cx_mul<X>(o[3], X::set1(-c), X::set1(sgn * c));
  v[0] = X::add(e[0], o[0]);
  v[4] = X::sub(e[0], o[0]);
  v[1] = X::add(e[1], t1);
  v[5] = X::sub(e[1], t1);
  v[2] = X::add(e[2], t2);
  v[6] = X::sub(e[2], t2);
  v[3] = X::add(e[3], t3);
  v[7] = X::sub(e[3], t3);
}

template <typename X, typename T, unsigned R>
inline void mixed_bfly_odd(typename X::V* v, const OddRadixConstants<R>& C,
                           bool inverse) {
  using V = typename X::V;
  constexpr unsigned kHalf = (R - 1) / 2;
  const V t0 = v[0];
  V a[kHalf], b[kHalf];
  for (unsigned j = 1; j <= kHalf; ++j) {
    a[j - 1] = X::add(v[j], v[R - j]);
    b[j - 1] = X::sub(v[j], v[R - j]);
  }
  V y0 = t0;
  for (unsigned j = 0; j < kHalf; ++j) y0 = X::add(y0, a[j]);
  v[0] = y0;
  for (unsigned k = 1; k <= kHalf; ++k) {
    V m = t0;
    V d = X::zero();
    for (unsigned j = 1; j <= kHalf; ++j) {
      m = X::add(m, X::mul(X::set1(static_cast<T>(C.c[k - 1][j - 1])),
                           a[j - 1]));
      d = X::add(d, X::mul(X::set1(static_cast<T>(C.s[k - 1][j - 1])),
                           b[j - 1]));
    }
    cx_cross<X>(m, d, inverse, v[k], v[R - k]);
  }
}

/// The DFT-matrix constants a radix-R stage needs: the odd radices' table,
/// an empty tag for 2, 4 and 8. Fetched once per stage call.
struct NoRadixConstants {};

template <unsigned R>
inline const auto& radix_constants() {
  if constexpr (R % 2 == 1) {
    return odd_radix_constants<R>();
  } else {
    static constexpr NoRadixConstants kNone{};
    return kNone;
  }
}

/// The radix-R DFT over register-resident legs v[0..R).
template <typename X, typename T, unsigned R, typename C>
inline void mixed_bfly(typename X::V* v, const C& constants, bool inverse) {
  if constexpr (R == 2) {
    const typename X::V sum = X::add(v[0], v[1]);
    v[1] = X::sub(v[0], v[1]);
    v[0] = sum;
  } else if constexpr (R == 4) {
    mixed_bfly4<X>(v, inverse);
  } else if constexpr (R == 8) {
    mixed_bfly8<X, T>(v, inverse);
  } else {
    mixed_bfly_odd<X, T, R>(v, constants, inverse);
  }
}

/// One radix-R stage over butterflies [g_begin, g_end). Lanes run across
/// consecutive offsets j of one block (contiguous legs, per-lane
/// twiddles); at L_p = 1 — the first stage — across consecutive blocks
/// (lane stride R, one shared twiddle set). Ragged block ends and an L_p
/// between 1 and the vector width run mixed_stage_scalar.
template <typename T, unsigned R>
void mixed_stage_fixed_avx2(const MixedRadixStage& st, const cplx_t<T>* tw,
                            const cplx_t<T>* src, cplx_t<T>* dst,
                            std::uint64_t g_begin, std::uint64_t g_end,
                            bool inverse) {
  using X = CxLanes<T>;
  using V = typename X::V;
  constexpr unsigned kLanes = X::kLanes;
  const std::uint64_t lp = st.prev_len;
  const std::uint64_t len = st.len;
  const auto& constants = radix_constants<R>();
  std::uint64_t g = g_begin;
  if (lp == 1) {
    V wr[R], wi[R];
    for (unsigned u = 1; u < R; ++u) {
      const V w = X::load_strided(tw + (u - 1), 0);
      wr[u] = X::dup_re(w);
      wi[u] = X::dup_im(w);
    }
    for (; g + kLanes <= g_end; g += kLanes) {
      const std::uint64_t base = g * R;
      V v[R];
      v[0] = X::load_strided(src + base, R);
      for (unsigned u = 1; u < R; ++u)
        v[u] = cx_mul<X>(X::load_strided(src + base + u, R), wr[u], wi[u]);
      mixed_bfly<X, T, R>(v, constants, inverse);
      for (unsigned k = 0; k < R; ++k) X::store_strided(dst + base + k, R, v[k]);
    }
  } else if (lp >= kLanes) {
    while (g < g_end) {
      const std::uint64_t b = g / lp;
      const std::uint64_t stop = std::min(g_end, (b + 1) * lp);
      std::uint64_t j = g - b * lp;
      const std::uint64_t j_end = j + (stop - g);
      for (; j + kLanes <= j_end; j += kLanes) {
        const std::uint64_t base = b * len + j;
        const cplx_t<T>* const wj = tw + j * (R - 1);
        V v[R];
        v[0] = X::load(src + base);
        for (unsigned u = 1; u < R; ++u) {
          const V w = X::load_strided(wj + (u - 1), R - 1);
          v[u] = cx_mul<X>(X::load(src + base + u * lp), X::dup_re(w),
                           X::dup_im(w));
        }
        mixed_bfly<X, T, R>(v, constants, inverse);
        for (unsigned k = 0; k < R; ++k) X::store(dst + base + k * lp, v[k]);
      }
      g = b * lp + j;
      if (g < stop) mixed_stage_scalar<T>(st, tw, src, dst, g, stop, inverse);
      g = stop;
    }
  }
  if (g < g_end) mixed_stage_scalar<T>(st, tw, src, dst, g, g_end, inverse);
}

template <typename T>
void mixed_stage_avx2(const MixedRadixStage& st, const cplx_t<T>* tw,
                      const cplx_t<T>* src, cplx_t<T>* dst,
                      std::uint64_t g_begin, std::uint64_t g_end,
                      bool inverse) {
  switch (st.radix) {
    case 2: mixed_stage_fixed_avx2<T, 2>(st, tw, src, dst, g_begin, g_end, inverse); break;
    case 3: mixed_stage_fixed_avx2<T, 3>(st, tw, src, dst, g_begin, g_end, inverse); break;
    case 4: mixed_stage_fixed_avx2<T, 4>(st, tw, src, dst, g_begin, g_end, inverse); break;
    case 5: mixed_stage_fixed_avx2<T, 5>(st, tw, src, dst, g_begin, g_end, inverse); break;
    case 7: mixed_stage_fixed_avx2<T, 7>(st, tw, src, dst, g_begin, g_end, inverse); break;
    case 8: mixed_stage_fixed_avx2<T, 8>(st, tw, src, dst, g_begin, g_end, inverse); break;
    default: break;
  }
}

// ---- Transpose tile micro-kernels (complex elements as 64-bit /
// 128-bit lane moves) ----

inline void transpose_tile_avx2_impl(const cplx_t<float>* src, cplx_t<float>* dst,
                                     std::uint64_t ss, std::uint64_t ds,
                                     std::uint64_t rows, std::uint64_t cols) {
  std::uint64_t r = 0;
  for (; r + 4 <= rows; r += 4) {
    std::uint64_t c = 0;
    for (; c + 4 <= cols; c += 4) {
      const __m256i* s0 = reinterpret_cast<const __m256i*>(src + (r + 0) * ss + c);
      const __m256i* s1 = reinterpret_cast<const __m256i*>(src + (r + 1) * ss + c);
      const __m256i* s2 = reinterpret_cast<const __m256i*>(src + (r + 2) * ss + c);
      const __m256i* s3 = reinterpret_cast<const __m256i*>(src + (r + 3) * ss + c);
      const __m256i r0 = _mm256_loadu_si256(s0);
      const __m256i r1 = _mm256_loadu_si256(s1);
      const __m256i r2 = _mm256_loadu_si256(s2);
      const __m256i r3 = _mm256_loadu_si256(s3);
      const __m256i t0 = _mm256_unpacklo_epi64(r0, r1);  // a0 b0 | a2 b2
      const __m256i t1 = _mm256_unpackhi_epi64(r0, r1);  // a1 b1 | a3 b3
      const __m256i t2 = _mm256_unpacklo_epi64(r2, r3);
      const __m256i t3 = _mm256_unpackhi_epi64(r2, r3);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + (c + 0) * ds + r),
                          _mm256_permute2x128_si256(t0, t2, 0x20));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + (c + 1) * ds + r),
                          _mm256_permute2x128_si256(t1, t3, 0x20));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + (c + 2) * ds + r),
                          _mm256_permute2x128_si256(t0, t2, 0x31));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(dst + (c + 3) * ds + r),
                          _mm256_permute2x128_si256(t1, t3, 0x31));
    }
    for (; c < cols; ++c)
      for (std::uint64_t rr = r; rr < r + 4; ++rr)
        dst[c * ds + rr] = src[rr * ss + c];
  }
  for (; r < rows; ++r)
    for (std::uint64_t c = 0; c < cols; ++c) dst[c * ds + r] = src[r * ss + c];
}

inline void transpose_tile_avx2_impl(const cplx_t<double>* src, cplx_t<double>* dst,
                                     std::uint64_t ss, std::uint64_t ds,
                                     std::uint64_t rows, std::uint64_t cols) {
  std::uint64_t r = 0;
  for (; r + 2 <= rows; r += 2) {
    std::uint64_t c = 0;
    for (; c + 2 <= cols; c += 2) {
      const __m256d r0 =
          _mm256_loadu_pd(reinterpret_cast<const double*>(src + (r + 0) * ss + c));
      const __m256d r1 =
          _mm256_loadu_pd(reinterpret_cast<const double*>(src + (r + 1) * ss + c));
      _mm256_storeu_pd(reinterpret_cast<double*>(dst + (c + 0) * ds + r),
                       _mm256_permute2f128_pd(r0, r1, 0x20));
      _mm256_storeu_pd(reinterpret_cast<double*>(dst + (c + 1) * ds + r),
                       _mm256_permute2f128_pd(r0, r1, 0x31));
    }
    for (; c < cols; ++c) {
      dst[c * ds + r] = src[r * ss + c];
      dst[c * ds + r + 1] = src[(r + 1) * ss + c];
    }
  }
  for (; r < rows; ++r)
    for (std::uint64_t c = 0; c < cols; ++c) dst[c * ds + r] = src[r * ss + c];
}

template <typename T>
void transpose_tile_avx2(const cplx_t<T>* src, cplx_t<T>* dst,
                         std::uint64_t src_stride, std::uint64_t dst_stride,
                         std::uint64_t rows, std::uint64_t cols) {
  transpose_tile_avx2_impl(src, dst, src_stride, dst_stride, rows, cols);
}

}  // namespace
}  // namespace c64fft::fft::kernels::detail
