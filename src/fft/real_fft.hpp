#pragma once
// Real-input FFT via the classic packing trick: an N-point real sequence
// is transformed with one N/2-point complex FFT plus an O(N) untangling
// pass — halving both the work and the off-chip traffic for the common
// signal-processing case the paper's introduction motivates. The float
// overloads are the f32 path (untangling trig still evaluated in double,
// narrowed per factor).

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "fft/plan.hpp"
#include "fft/types.hpp"

namespace c64fft::fft {

/// Validated shape of one real forward transform: the N/2-point packed
/// complex sub-transform. Model-builder hook shared
/// between real_forward and the static pipeline model
/// (analysis::build_real_fft_pipeline). Throws std::invalid_argument when
/// n is not a power of two >= 2.
struct RealFftShape {
  std::uint64_t n = 0;
  /// Length of the packed complex transform; 1 when n == 2, where no
  /// sub-transform runs.
  std::uint64_t half = 0;
};
RealFftShape real_forward_shape(std::uint64_t n);

/// Packed-spectrum elements bin k of the untangled half-spectrum reads:
/// {k % half, (half - k) % half}. Exposed so the static verifier proves
/// the untangling pass against the same index algebra the kernel runs.
inline std::array<std::uint64_t, 2> real_unpack_sources(std::uint64_t k,
                                                        std::uint64_t half) {
  return {k % half, (half - k) % half};
}

/// Forward transform of a real sequence (power-of-two length N >= 2).
/// Returns the N/2+1 non-redundant spectrum bins X[0..N/2]; the remaining
/// bins are their conjugate mirror. Runs the N/2-point packed transform on
/// the process-wide executor with `opts` (same options as fft::forward).
std::vector<cplx> real_forward(std::span<const double> signal,
                               const HostFftOptions& opts = {});
std::vector<cplx32> real_forward(std::span<const float> signal,
                                 const HostFftOptions& opts = {});

/// Inverse of real_forward: reconstructs the N-sample real sequence from
/// its N/2+1 half-spectrum.
std::vector<double> real_inverse(std::span<const cplx> half_spectrum,
                                 const HostFftOptions& opts = {});
std::vector<float> real_inverse(std::span<const cplx32> half_spectrum,
                                const HostFftOptions& opts = {});

}  // namespace c64fft::fft
