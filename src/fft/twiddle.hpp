#pragma once
// Twiddle factors of the production transforms: the unit-root primitive
// every table is built from, and the view of a pow2 sweep's per-level
// twiddle planes.
//
// Production stores each pow2 size's twiddles in the order the
// whole-transform sweep reads them (LevelTwiddles, built once per
// direction by the classic PlanEntry), so no butterfly level gathers or
// indexes a table at run time. The paper's linear and bit-reversed
// ("hashed", Section IV-B) tables live in the reproduction harness
// (paper/twiddle_table.hpp).

#include <cstdint>
#include <span>

#include "fft/types.hpp"

namespace c64fft::fft {

/// kInverse holds the exact conjugates W[t] = exp(+2*pi*i * t / N) of the
/// forward entries. Running the forward stage kernels against conjugated
/// twiddles computes conj(FFT(conj(x))) bit-identically (every rounding is
/// sign-symmetric) up to the sign of an exact zero — a difference of equal
/// operands is +0 either way, so conj turns it to -0 on that route only —
/// which is how the executor's inverse path drops the input-conjugation
/// pass.
enum class TwiddleDirection { kForward, kInverse };

/// The N-th unit root W_N^t = exp(-2*pi*i * t / n) (conjugated for
/// kInverse) — the primitive every twiddle table is built from. Exposed so
/// on-the-fly consumers (the hierarchical path's fused twiddle-transpose)
/// can generate inter-step factors per tile instead of materializing an
/// O(N) table. The trig always runs in double; unit_root<float> narrows
/// the result, so an f32 table is the correctly rounded image of the f64
/// one.
template <typename T>
cplx_t<T> unit_root(std::uint64_t n, std::uint64_t t,
                    TwiddleDirection direction = TwiddleDirection::kForward);

/// The twiddles of one n-point pow2 sweep (n >= 2) as two split-complex
/// planes of n scalars each. Butterfly level v's 2^v twiddles
/// W_n^(u << (log2 n - v - 1)), u < 2^v, sit at [2^v, 2^(v+1)) of `re` and
/// `im`, so every level reads one contiguous span and the fused radix-8/4
/// first pass reads levels 0..2 as the one run [1, 8). Slot 0 is unused.
template <typename T>
struct LevelTwiddles {
  std::span<const T> re;
  std::span<const T> im;
};

}  // namespace c64fft::fft
