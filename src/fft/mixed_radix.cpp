#include "fft/mixed_radix.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

#include "fft/kernels/dispatch.hpp"
#include "fft/plan.hpp"
#include "util/bit_ops.hpp"

namespace c64fft::fft {

namespace {

/// Naive complex product. std::complex operator* lowers to the __muldc3
/// libcall (NaN/Inf recovery branches) and costs ~3x the four-mul kernel
/// on finite inputs; every value in an FFT stage is finite, where the two
/// agree bit-for-bit, so the stage runners use this form.
template <typename T>
inline cplx_t<T> cmul(const cplx_t<T>& a, const cplx_t<T>& b) {
  return cplx_t<T>(a.real() * b.real() - a.imag() * b.imag(),
                   a.real() * b.imag() + a.imag() * b.real());
}

/// Odd-radix DFT via the real/imaginary pairing a_j = t_j + t_{R-j},
/// b_j = t_j - t_{R-j}: y_k = m_k -+ i*d_k with m_k = t0 + sum_j c_kj*a_j
/// and d_k = sum_j s_kj*b_j (forward takes -i*d_k; the inverse conjugates
/// every root, which flips only the d term's sign).
template <typename T, unsigned R>
inline void butterfly_odd(cplx_t<T>* v, bool inverse) {
  constexpr unsigned kHalf = (R - 1) / 2;
  const OddRadixConstants<R>& C = odd_radix_constants<R>();
  const cplx_t<T> t0 = v[0];
  cplx_t<T> a[kHalf], b[kHalf];
  for (unsigned j = 1; j <= kHalf; ++j) {
    a[j - 1] = v[j] + v[R - j];
    b[j - 1] = v[j] - v[R - j];
  }
  cplx_t<T> y0 = t0;
  for (unsigned j = 0; j < kHalf; ++j) y0 += a[j];
  v[0] = y0;
  for (unsigned k = 1; k <= kHalf; ++k) {
    cplx_t<T> m = t0;
    cplx_t<T> d{};
    for (unsigned j = 1; j <= kHalf; ++j) {
      m += static_cast<T>(C.c[k - 1][j - 1]) * a[j - 1];
      d += static_cast<T>(C.s[k - 1][j - 1]) * b[j - 1];
    }
    const T dre = inverse ? -d.real() : d.real();
    const T dim = inverse ? -d.imag() : d.imag();
    v[k] = cplx_t<T>(m.real() + dim, m.imag() - dre);
    v[R - k] = cplx_t<T>(m.real() - dim, m.imag() + dre);
  }
}

/// Radix-4: a = t0+t2, b = t0-t2, c = t1+t3, d = t1-t3; y0 = a+c,
/// y2 = a-c, y1/y3 = b -+ i*d (forward), sign flipped for inverse.
template <typename T>
inline void butterfly4(cplx_t<T>* v, bool inverse) {
  const cplx_t<T> a = v[0] + v[2];
  const cplx_t<T> b = v[0] - v[2];
  const cplx_t<T> c = v[1] + v[3];
  const cplx_t<T> d = v[1] - v[3];
  const T dre = inverse ? -d.real() : d.real();
  const T dim = inverse ? -d.imag() : d.imag();
  v[0] = a + c;
  v[1] = cplx_t<T>(b.real() + dim, b.imag() - dre);
  v[2] = a - c;
  v[3] = cplx_t<T>(b.real() - dim, b.imag() + dre);
}

/// Radix-8 as two radix-4 halves over the even/odd subsequences combined
/// through W_8^k: y_k = e_k + W_8^k*o_k, y_{k+4} = e_k - W_8^k*o_k with
/// W_8 = exp(-2*pi*i/8) forward (conjugated inverse).
template <typename T>
inline void butterfly8(cplx_t<T>* v, bool inverse) {
  cplx_t<T> e[4] = {v[0], v[2], v[4], v[6]};
  cplx_t<T> o[4] = {v[1], v[3], v[5], v[7]};
  butterfly4<T>(e, inverse);
  butterfly4<T>(o, inverse);
  const T c = static_cast<T>(std::numbers::sqrt2 / 2.0);
  const T sgn = inverse ? T(1) : T(-1);
  const cplx_t<T> w1(c, sgn * c);
  const cplx_t<T> w3(-c, sgn * c);
  const cplx_t<T> t1 = cmul<T>(w1, o[1]);
  const cplx_t<T> t2 = inverse ? cplx_t<T>(-o[2].imag(), o[2].real())
                               : cplx_t<T>(o[2].imag(), -o[2].real());
  const cplx_t<T> t3 = cmul<T>(w3, o[3]);
  v[0] = e[0] + o[0];
  v[4] = e[0] - o[0];
  v[1] = e[1] + t1;
  v[5] = e[1] - t1;
  v[2] = e[2] + t2;
  v[6] = e[2] - t2;
  v[3] = e[3] + t3;
  v[7] = e[3] - t3;
}

/// Stage sweep with the radix fixed at compile time: the per-butterfly
/// radix switch of the generic loop costs register pressure more than
/// branches — with R a constant the compiler unrolls the leg loads, the
/// codelet, and the stores into straight-line code with v[] fully in
/// registers. Same operations in the same order as the generic loop, so
/// results are bit-identical.
template <typename T, unsigned R>
void run_stage_fixed(const MixedRadixStage& st, const cplx_t<T>* tw,
                     const cplx_t<T>* src, cplx_t<T>* dst,
                     std::uint64_t g_begin, std::uint64_t g_end,
                     bool inverse) {
  const std::uint64_t lp = st.prev_len;
  const std::uint64_t len = st.len;
  cplx_t<T> v[R];
  // Butterfly g has digits (b, j) = (g / lp, g % lp); carrying the digits
  // across iterations replaces two 64-bit divisions per butterfly (the
  // single hottest instruction pair of the original loop) with one
  // compare-and-carry.
  std::uint64_t b = g_begin / lp;
  std::uint64_t j = g_begin - b * lp;
  for (std::uint64_t g = g_begin; g < g_end; ++g) {
    const std::uint64_t base = b * len + j;
    const cplx_t<T>* const wj = tw + j * (R - 1);
    v[0] = src[base];
    for (unsigned u = 1; u < R; ++u)
      v[u] = cmul<T>(src[base + u * lp], wj[u - 1]);
    if constexpr (R == 2) {
      const cplx_t<T> s = v[0] + v[1];
      v[1] = v[0] - v[1];
      v[0] = s;
    } else if constexpr (R == 4) {
      butterfly4<T>(v, inverse);
    } else if constexpr (R == 8) {
      butterfly8<T>(v, inverse);
    } else {
      butterfly_odd<T, R>(v, inverse);
    }
    for (unsigned k = 0; k < R; ++k) dst[base + k * lp] = v[k];
    if (++j == lp) {
      j = 0;
      ++b;
    }
  }
}

}  // namespace

template <unsigned R>
const OddRadixConstants<R>& odd_radix_constants() {
  static const OddRadixConstants<R> table = [] {
    OddRadixConstants<R> t{};
    constexpr unsigned kHalf = (R - 1) / 2;
    for (unsigned k = 1; k <= kHalf; ++k)
      for (unsigned j = 1; j <= kHalf; ++j) {
        const double a =
            2.0 * std::numbers::pi * static_cast<double>(k * j) / R;
        t.c[k - 1][j - 1] = std::cos(a);
        t.s[k - 1][j - 1] = std::sin(a);
      }
    return t;
  }();
  return table;
}

template const OddRadixConstants<3>& odd_radix_constants<3>();
template const OddRadixConstants<5>& odd_radix_constants<5>();
template const OddRadixConstants<7>& odd_radix_constants<7>();

Factorization factorize(std::uint64_t n) {
  Factorization f;
  if (n == 0) {
    f.residue = 0;
    return f;
  }
  std::uint64_t m = n;
  unsigned e2 = 0;
  while ((m & 1) == 0) {
    m >>= 1;
    ++e2;
  }
  // Pow2 part as the widest codelets that tile it: 8s while more than a
  // 4,4 remainder is left, then one 4/4,4/2 tail. (e2=4 prefers 4*4 over
  // 8*2: two mid radices beat one wide plus the narrowest.)
  while (e2 >= 3 && e2 != 4) {
    f.factors.push_back(8);
    e2 -= 3;
  }
  if (e2 == 4) {
    f.factors.push_back(4);
    f.factors.push_back(4);
  } else if (e2 == 2) {
    f.factors.push_back(4);
  } else if (e2 == 1) {
    f.factors.push_back(2);
  }
  while (m % 7 == 0) {
    f.factors.push_back(7);
    m /= 7;
  }
  while (m % 5 == 0) {
    f.factors.push_back(5);
    m /= 5;
  }
  while (m % 3 == 0) {
    f.factors.push_back(3);
    m /= 3;
  }
  f.residue = m;
  f.smooth = m == 1;
  return f;
}

std::uint64_t digit_reverse(std::uint64_t p,
                            std::span<const std::uint32_t> factors) {
  // Horner over the execution-order digit bases: peeling the least
  // significant digit (base f_0) first leaves it most significant in the
  // result, which is exactly the recursive DIT requirement that the
  // top-stage residue u land as src = f_top * sigma(q) + u.
  std::uint64_t t = p;
  std::uint64_t src = 0;
  for (const std::uint32_t f : factors) {
    src = src * f + t % f;
    t /= f;
  }
  return src;
}

MixedRadixPlan::MixedRadixPlan(std::uint64_t n)
    : n_(n), factorization_(factorize(n)) {
  if (n < 2)
    throw std::invalid_argument("MixedRadixPlan: size must be >= 2");
  if (n >> 32)
    throw std::invalid_argument(
        "MixedRadixPlan: size must be < 2^32 (permutation table width)");
  if (!factorization_.smooth)
    throw std::invalid_argument(
        "MixedRadixPlan: size must be 7-smooth (non-smooth sizes route to "
        "Bluestein)");
  std::uint64_t len = 1;
  std::uint64_t off = 0;
  stages_.reserve(factorization_.factors.size());
  for (const std::uint32_t r : factorization_.factors) {
    MixedRadixStage st;
    st.radix = r;
    st.prev_len = len;
    len *= r;
    st.len = len;
    st.twiddle_offset = off;
    off += st.prev_len * (r - 1);
    stages_.push_back(st);
  }
  perm_.resize(n);
  const std::span<const std::uint32_t> factors(factorization_.factors);
  for (std::uint64_t p = 0; p < n; ++p)
    perm_[p] = static_cast<std::uint32_t>(digit_reverse(p, factors));
}

template <typename T>
std::vector<cplx_t<T>> mixed_radix_twiddles(const MixedRadixPlan& plan,
                                            TwiddleDirection direction) {
  std::vector<cplx_t<T>> tw;
  tw.reserve(plan.twiddle_count());
  for (const MixedRadixStage& st : plan.stages())
    for (std::uint64_t j = 0; j < st.prev_len; ++j)
      for (std::uint32_t u = 1; u < st.radix; ++u)
        tw.push_back(unit_root<T>(st.len, (j * u) % st.len, direction));
  return tw;
}

template <typename T>
void mixed_radix_permute(const MixedRadixPlan& plan,
                         std::span<const cplx_t<T>> src,
                         std::span<cplx_t<T>> dst, std::uint64_t begin,
                         std::uint64_t end) {
  const std::span<const std::uint32_t> perm = plan.permutation();
  for (std::uint64_t p = begin; p < end; ++p) dst[p] = src[perm[p]];
}

template <typename T>
void mixed_stage_scalar(const MixedRadixStage& st, const cplx_t<T>* tw,
                        const cplx_t<T>* src, cplx_t<T>* dst,
                        std::uint64_t g_begin, std::uint64_t g_end,
                        bool inverse) {
  switch (st.radix) {
    case 2: run_stage_fixed<T, 2>(st, tw, src, dst, g_begin, g_end, inverse); break;
    case 3: run_stage_fixed<T, 3>(st, tw, src, dst, g_begin, g_end, inverse); break;
    case 4: run_stage_fixed<T, 4>(st, tw, src, dst, g_begin, g_end, inverse); break;
    case 5: run_stage_fixed<T, 5>(st, tw, src, dst, g_begin, g_end, inverse); break;
    case 7: run_stage_fixed<T, 7>(st, tw, src, dst, g_begin, g_end, inverse); break;
    case 8: run_stage_fixed<T, 8>(st, tw, src, dst, g_begin, g_end, inverse); break;
    default: break;
  }
}

template <typename T>
void run_mixed_radix_stage(const MixedRadixPlan& plan, std::uint32_t stage,
                           std::span<const cplx_t<T>> twiddles,
                           std::span<const cplx_t<T>> src,
                           std::span<cplx_t<T>> dst, std::uint64_t g_begin,
                           std::uint64_t g_end, TwiddleDirection direction) {
  const MixedRadixStage& st = plan.stages()[stage];
  kernels::active_kernels<T>().mixed_stage(
      st, twiddles.data() + st.twiddle_offset, src.data(), dst.data(),
      g_begin, g_end, direction == TwiddleDirection::kInverse);
}

template <typename T>
void mixed_radix_serial(const MixedRadixPlan& plan,
                        std::span<const cplx_t<T>> twiddles,
                        std::span<cplx_t<T>> data,
                        std::vector<cplx_t<T>>& scratch,
                        TwiddleDirection direction) {
  const std::uint64_t n = plan.size();
  if (scratch.size() < n) scratch.resize(n);
  const std::span<cplx_t<T>> s(scratch.data(), n);
  mixed_radix_permute<T>(plan, data, s, 0, n);
  // Stage 0 reads the permuted scratch and writes data (identical
  // indices, disjoint buffers); stages 1+ run in place on data.
  const std::uint32_t stages = plan.stage_count();
  run_mixed_radix_stage<T>(plan, 0, twiddles, s, data, 0,
                           n / plan.stages()[0].radix, direction);
  for (std::uint32_t st = 1; st < stages; ++st)
    run_mixed_radix_stage<T>(plan, st, twiddles, data, data, 0,
                             n / plan.stages()[st].radix, direction);
}

template <typename T>
cplx_t<T> bluestein_chirp(std::uint64_t n, std::uint64_t j,
                          TwiddleDirection direction) {
  const std::uint64_t two_n = 2 * n;
  const std::uint64_t t = static_cast<std::uint64_t>(
      (static_cast<unsigned __int128>(j) * j) % two_n);
  return unit_root<T>(two_n, t, direction);
}

std::uint64_t bluestein_fft_size(std::uint64_t n) {
  if (n < 2 || n > kMaxBluesteinSize)
    throw std::invalid_argument("bluestein_fft_size: N must be in [2, 2^29]");
  return util::next_pow2(2 * n - 1);
}

template std::vector<cplx> mixed_radix_twiddles<double>(const MixedRadixPlan&,
                                                        TwiddleDirection);
template std::vector<cplx32> mixed_radix_twiddles<float>(const MixedRadixPlan&,
                                                         TwiddleDirection);
template void mixed_radix_permute<double>(const MixedRadixPlan&,
                                          std::span<const cplx>,
                                          std::span<cplx>, std::uint64_t,
                                          std::uint64_t);
template void mixed_radix_permute<float>(const MixedRadixPlan&,
                                         std::span<const cplx32>,
                                         std::span<cplx32>, std::uint64_t,
                                         std::uint64_t);
template void mixed_stage_scalar<double>(const MixedRadixStage&,
                                         const cplx*, const cplx*, cplx*,
                                         std::uint64_t, std::uint64_t, bool);
template void mixed_stage_scalar<float>(const MixedRadixStage&,
                                        const cplx32*, const cplx32*,
                                        cplx32*, std::uint64_t, std::uint64_t,
                                        bool);
template void run_mixed_radix_stage<double>(const MixedRadixPlan&,
                                            std::uint32_t,
                                            std::span<const cplx>,
                                            std::span<const cplx>,
                                            std::span<cplx>, std::uint64_t,
                                            std::uint64_t, TwiddleDirection);
template void run_mixed_radix_stage<float>(const MixedRadixPlan&,
                                           std::uint32_t,
                                           std::span<const cplx32>,
                                           std::span<const cplx32>,
                                           std::span<cplx32>, std::uint64_t,
                                           std::uint64_t, TwiddleDirection);
template void mixed_radix_serial<double>(const MixedRadixPlan&,
                                         std::span<const cplx>,
                                         std::span<cplx>, std::vector<cplx>&,
                                         TwiddleDirection);
template void mixed_radix_serial<float>(const MixedRadixPlan&,
                                        std::span<const cplx32>,
                                        std::span<cplx32>,
                                        std::vector<cplx32>&,
                                        TwiddleDirection);
template cplx bluestein_chirp<double>(std::uint64_t, std::uint64_t,
                                      TwiddleDirection);
template cplx32 bluestein_chirp<float>(std::uint64_t, std::uint64_t,
                                       TwiddleDirection);

}  // namespace c64fft::fft
