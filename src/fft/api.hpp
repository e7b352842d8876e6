#pragma once
// Public façade of the library: one-call forward/inverse transforms on
// the host codelet runtime, plus out-of-place forms and circular
// convolution. Include this (and fft/fft2d.hpp for 2-D) to consume the
// library; the lower-level headers stay available for research use.

#include <span>
#include <vector>

#include "fft/plan.hpp"
#include "fft/types.hpp"

namespace c64fft::fft {

/// In-place forward FFT of any N >= 2 on the process-wide executor: pow2
/// sizes as one whole-transform sweep (the hierarchical pipeline from
/// 2^18), 7-smooth composites mixed-radix, everything else Bluestein. The
/// cplx32 overloads run the single-precision engine (same plan algebra,
/// f32 twiddles/kernels, distinct plan-cache entries). The paper's
/// codelet radix, schedules and twiddle layouts live behind fft_host, the
/// reproduction driver.
void forward(std::span<cplx> data, const HostFftOptions& opts = {});
void forward(std::span<cplx32> data, const HostFftOptions& opts = {});

/// In-place inverse FFT (unitary 1/N scaling), same engine.
void inverse(std::span<cplx> data, const HostFftOptions& opts = {});
void inverse(std::span<cplx32> data, const HostFftOptions& opts = {});

/// Out-of-place convenience forms.
std::vector<cplx> forward_copy(std::span<const cplx> data,
                               const HostFftOptions& opts = {});
std::vector<cplx32> forward_copy(std::span<const cplx32> data,
                                 const HostFftOptions& opts = {});
std::vector<cplx> inverse_copy(std::span<const cplx> data,
                               const HostFftOptions& opts = {});
std::vector<cplx32> inverse_copy(std::span<const cplx32> data,
                                 const HostFftOptions& opts = {});

/// Circular convolution of two equal-length sequences via FFT (pointwise
/// product in the frequency domain). Any length N >= 2 is accepted and
/// ALWAYS runs transforms of the exact length: 7-smooth composites take
/// the factorization-driven mixed-radix plan, and prime/awkward lengths
/// take Bluestein, whose pow2 padding is internal to the executor.
/// Padding to the next pow2 at this layer would change the convolution's
/// period — not merely its cost — so the exact-N plan is the only
/// correct choice.
std::vector<cplx> circular_convolve(std::span<const cplx> a, std::span<const cplx> b,
                                    const HostFftOptions& opts = {});

}  // namespace c64fft::fft
