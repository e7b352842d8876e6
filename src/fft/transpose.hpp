#pragma once
// The tile kernel of the executor's tile pipeline (FftExecutor's
// run_tile_pipeline): the tile edge every gather and scatter of the
// pipeline blocks on, and the hierarchical route's fused inter-step
// twiddle-transpose, which generates its factors per tile instead of
// materializing an O(N) inter-step table.
//
// A naive element-loop transpose reads one array contiguously and writes
// the other with a power-of-two column stride — on a set-associative cache
// that strided stream maps every access onto a handful of cache sets, the
// host analogue of the paper's bank-0 twiddle hotspot (every write evicts
// the line the previous one brought in). Blocking the traversal into
// square tiles keeps both the source and destination footprint of a tile
// inside L1, so every fetched line is fully consumed before eviction. The
// plain tile moves run through the active kernel table's transpose_tile;
// the harness's whole-matrix transposes are in paper/transpose.hpp.

#include <cstdint>

#include "fft/twiddle.hpp"
#include "fft/types.hpp"

namespace c64fft::fft {

/// Tile edge of the pipeline's gathers and scatters: 16 x 16 cplx = 4 KiB
/// per operand, four cache lines per tile row — both tiles stay
/// L1-resident while each 64 B line is read/written whole.
inline constexpr std::uint64_t kTransposeTile = 16;

/// One tile of the fused twiddle-transpose, gathered into a panel: for
/// the row-major rows x cols `src` (full-matrix base pointer), applies
///   dst[(c - dst_col0) * rows + r] = src[r * cols + c] * W^(r*c)
/// over the tile [r0, rmax) x [c0, cmax), where W = w1 is the
/// (rows*cols)-th unit root of the pass direction. `dst` holds only the
/// destination rows for source columns [dst_col0, ...) — the hierarchical
/// pipeline's per-worker panel; dst_col0 = 0 addresses the full
/// cols x rows transpose. The factors W^(r*c) are geometric along both
/// tile axes: along a source row the ratio is W^r, and from one row to
/// the next the row seed W^(r*c0) advances by W^c0 while the row ratio
/// W^r advances by W^1. Three unit-root evaluations therefore seed the
/// whole tile and recurrences of at most kTransposeTile multiplies cover
/// the rest (r*c < rows*cols, so the exponents never need reduction).
/// Each product depends only on the tile origin (r0, c0) and the
/// element's offset inside the tile, never on which panel or block the
/// tile is gathered into, so any block decomposition on the tile grid is
/// bit-identical. `w1` must
/// be unit_root<T>(rows * cols, 1, dir), hoisted by the caller so a sweep
/// pays its sincos once. The loop nest (c outer, r inner) is the
/// performance point: the per-row recurrences are independent chains, so
/// running up to kTransposeTile of them abreast hides the serial
/// complex-multiply latency, and the panel writes of one c are
/// contiguous.
template <typename T>
inline void transpose_twiddle_tile_panel(const cplx_t<T>* src, cplx_t<T>* dst,
                                         std::uint64_t rows, std::uint64_t cols,
                                         TwiddleDirection dir, std::uint64_t r0,
                                         std::uint64_t rmax, std::uint64_t c0,
                                         std::uint64_t cmax,
                                         const cplx_t<T>& w1,
                                         std::uint64_t dst_col0) {
  const std::uint64_t n = rows * cols;
  const std::uint64_t tr = rmax - r0;
  cplx_t<T> w[kTransposeTile];
  cplx_t<T> stp[kTransposeTile];
  cplx_t<T> w_row = unit_root<T>(n, r0 * c0, dir);
  cplx_t<T> step = unit_root<T>(n, r0, dir);
  const cplx_t<T> w_col = unit_root<T>(n, c0, dir);
  for (std::uint64_t i = 0; i < tr; ++i) {
    w[i] = w_row;
    stp[i] = step;
    w_row *= w_col;
    step *= w1;
  }
  for (std::uint64_t c = c0; c < cmax; ++c) {
    cplx_t<T>* const out = dst + (c - dst_col0) * rows + r0;
    const cplx_t<T>* const in = src + r0 * cols + c;
    for (std::uint64_t i = 0; i < tr; ++i) {
      out[i] = in[i * cols] * w[i];
      w[i] *= stp[i];
    }
  }
}

}  // namespace c64fft::fft
