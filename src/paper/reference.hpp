#pragma once
// Reference transforms for correctness checking: a naive O(N^2) DFT (the
// ground truth for small sizes) and serial recursive and in-place radix-2
// FFTs (for sizes where the DFT is too slow). Harness oracles: production
// (c64fft_fft) has one pow2 FFT, run_transform_split, and never calls
// these. Also inverse transforms and error
// metrics. Each exists at both precisions; the error metrics always
// accumulate in double (so f32 comparisons are not polluted by the
// metric's own rounding) and there are mixed-precision overloads that
// measure an f32 result against the f64 ground truth directly.

#include <span>
#include <vector>

#include "fft/types.hpp"

namespace c64fft::fft {

/// Naive O(N^2) forward DFT: X[k] = sum_j x[j] exp(-2 pi i jk / N).
/// Any N >= 1.
std::vector<cplx> dft_reference(std::span<const cplx> input);
std::vector<cplx32> dft_reference(std::span<const cplx32> input);

/// Serial recursive radix-2 decimation-in-time FFT (power-of-two N),
/// out-of-place.
std::vector<cplx> fft_recursive(std::span<const cplx> input);
std::vector<cplx32> fft_recursive(std::span<const cplx32> input);

/// In-place serial iterative radix-2 FFT (bit reversal + n levels).
void fft_serial_inplace(std::span<cplx> data);
void fft_serial_inplace(std::span<cplx32> data);

/// Inverse FFT via conjugation: ifft(x) = conj(fft(conj(x))) / N.
std::vector<cplx> ifft_reference(std::span<const cplx> input);
std::vector<cplx32> ifft_reference(std::span<const cplx32> input);

/// Max elementwise absolute error between two vectors (inf for size
/// mismatch). Always accumulated in double.
double max_abs_error(std::span<const cplx> a, std::span<const cplx> b);
double max_abs_error(std::span<const cplx32> a, std::span<const cplx32> b);
/// Mixed: f32 result against the f64 ground truth.
double max_abs_error(std::span<const cplx32> a, std::span<const cplx> b);

/// Relative L2 error ||a-b|| / max(||b||, eps). Always accumulated in
/// double.
double rel_l2_error(std::span<const cplx> a, std::span<const cplx> b);
double rel_l2_error(std::span<const cplx32> a, std::span<const cplx32> b);
/// Mixed: f32 result against the f64 ground truth.
double rel_l2_error(std::span<const cplx32> a, std::span<const cplx> b);

}  // namespace c64fft::fft
