#pragma once
// Bit-reversal permutation of the input array — the first step of every
// Cooley-Tukey variant in the paper (Fig. 4: "applied once and only once
// in the whole FFT computation"). Available at both precisions; the
// overloads are concrete so vector-to-span conversions at call sites keep
// working (bodies are shared templates in bit_reversal.cpp).

#include <cstdint>
#include <span>

#include "fft/types.hpp"

namespace c64fft::fft {

/// In-place bit-reversal permutation; data.size() must be a power of two.
void bit_reverse_permute(std::span<cplx> data);
void bit_reverse_permute(std::span<cplx32> data);

}  // namespace c64fft::fft
