#pragma once
// Runtime-dispatched explicit-SIMD kernel table.
//
// Every data-parallel inner loop of the hot path — the split-complex
// butterfly levels of the whole-transform sweep (with its fused radix-4/8
// first pass), which read their twiddle spans in place from the plan
// entry's per-level planes, its bit-reversal permuted gather and
// contiguous re-interleave, the mixed-radix stage butterflies, and the
// tiled-transpose copy — is reached through one KernelDispatch<T> of
// function pointers instead of being compiled inline. Two tables exist
// per precision:
//
//   scalar  — the portable kernels (the pre-existing autovectorized
//             loops), compiled at the build's baseline ISA. Always valid;
//             this is the oracle every other table is tested against.
//   avx2    — 256-bit AVX2 kernels (kernels_avx2.cpp, compiled with
//             -mavx2 for just that translation unit). AVX-512 hosts run
//             these too: full 512-bit bodies measured slower than the
//             256-bit ones at codelet-sized working sets.
//
// Which table is *active* is decided once, lazily, from the cpuid probe
// (util::best_supported_isa) narrowed by the C64FFT_ISA environment
// variable, and can be forced programmatically with set_kernel_isa()
// (tests, fft_lint --isa). A request the hardware cannot execute clamps
// down, so dereferencing an active table is always safe.
//
// Numerics contract: every SIMD kernel assigns one butterfly (or one
// element) per vector lane and keeps the scalar kernel's per-element
// operation sequence — multiplies, adds and subtracts in the same order,
// no FMA contraction (the SIMD translation units are built with
// -ffp-contract=off). For finite data each table therefore produces
// BIT-IDENTICAL results to the scalar table; the dispatch-matrix test
// asserts agreement within the peak-ULP bounds of util/ulp.hpp so a
// future kernel that does reassociate (e.g. an FMA variant) has a
// documented contract to meet, and the scalar table remains the exact
// bit-comparison oracle for the dispatch plumbing itself.

#include <cstdint>

#include "fft/mixed_radix.hpp"
#include "fft/types.hpp"
#include "util/cpu_features.hpp"

namespace c64fft::fft::kernels {

template <typename T>
struct KernelDispatch {
  /// The table's ISA level and its stable id ("scalar"/"avx2") — recorded
  /// by fft_lint pipeline reports.
  util::IsaLevel isa;
  const char* id;

  /// All log2 n butterfly levels of one whole n-point transform over its
  /// bit-reversed split-complex planes re/im: level L pairs g with
  /// g + 2^L under W_n^((g mod 2^L) << (log2 n - L - 1)), read in place
  /// from the n-scalar per-level twiddle planes tw_re/tw_im (level L's
  /// span at [2^L, 2^(L+1)), fft/twiddle.hpp LevelTwiddles). The leading
  /// levels run as one fused radix-8 pass (radix-4 at n = 4, none at
  /// n = 2), bit-identical to the per-level loops.
  void (*chain_split)(T* re, T* im, std::uint64_t n, const T* tw_re,
                      const T* tw_im);

  /// Permuted deinterleave: re/im[k] = src[idx[k]] — the bit-reversal
  /// reorder fused with the split-complex gather that opens a
  /// whole-transform sweep (kernel.cpp run_transform_split). idx entries
  /// must be < 2^30 (the SIMD tables address scalar components through
  /// i32 gather indices).
  void (*permute_split)(const cplx_t<T>* src, const std::uint32_t* idx,
                        std::uint64_t count, T* re, T* im);

  /// Re-interleave re/im into dst[0, count).
  void (*scatter_merge)(const T* re, const T* im, std::uint64_t count,
                        cplx_t<T>* dst);

  /// Butterflies [g_begin, g_end) of one mixed-radix stage: the semantics
  /// of fft::run_mixed_radix_stage, with `tw` already offset to the
  /// stage's slice of the flat twiddle vector.
  void (*mixed_stage)(const MixedRadixStage& stage, const cplx_t<T>* tw,
                      const cplx_t<T>* src, cplx_t<T>* dst,
                      std::uint64_t g_begin, std::uint64_t g_end,
                      bool inverse);

  /// Tiled-transpose micro-kernel: dst[c * dst_stride + r] =
  /// src[r * src_stride + c] for r < rows, c < cols (pointers pre-offset
  /// to the tile origin). dst must not alias src.
  void (*transpose_tile)(const cplx_t<T>* src, cplx_t<T>* dst,
                         std::uint64_t src_stride, std::uint64_t dst_stride,
                         std::uint64_t rows, std::uint64_t cols);
};

/// The table for one ISA level. `level` above hardware support still
/// returns that level's table (the caller asked for it explicitly — the
/// tests force levels through set_kernel_isa, which clamps); levels not
/// compiled into this build (non-x86) alias the scalar table.
template <typename T>
const KernelDispatch<T>& kernels_for(util::IsaLevel level);

/// The process-active table: resolved on first use from
/// util::isa_from_env() (cpuid best, narrowed by C64FFT_ISA), sticky
/// until set_kernel_isa()/reset_kernel_isa_from_env().
template <typename T>
const KernelDispatch<T>& active_kernels();

/// Force the active ISA level (clamped to hardware support; returns the
/// level actually installed). Not thread-safe against in-flight
/// transforms — call at startup, between phases, or from tests/tools.
util::IsaLevel set_kernel_isa(util::IsaLevel level);

/// Re-resolve the active level from C64FFT_ISA + cpuid: undoes a
/// set_kernel_isa() (tests and benches restore the default this way).
/// Nothing in the library calls it, so a forced level holds across
/// executor and server construction.
util::IsaLevel reset_kernel_isa_from_env();

/// The currently active level (resolving it on first call).
util::IsaLevel active_kernel_isa();

extern template const KernelDispatch<float>& kernels_for<float>(util::IsaLevel);
extern template const KernelDispatch<double>& kernels_for<double>(util::IsaLevel);
extern template const KernelDispatch<float>& active_kernels<float>();
extern template const KernelDispatch<double>& active_kernels<double>();

}  // namespace c64fft::fft::kernels
