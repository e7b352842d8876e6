#pragma once
// Factorization-driven plan geometry for arbitrary N (Salishev's regular
// mixed-radix DFT matrix factorization): a `factorize(n)` planner emits a
// vector of stage radices drawn from {2, 3, 4, 5, 7, 8}, generalized
// digit-reversal replaces bit-reversal as the input permutation, and a
// flat per-stage twiddle vector (exactly N-1 entries — the per-stage
// counts L_{s-1}*(r-1) telescope) replaces the pow2-indexed half table.
//
// Stage algebra (decimation-in-time, natural-order output): stage s has
// radix r, transform length L = r * L_p where L_p is the previous stage's
// length. The butterfly at (block b, offset j), j in [0, L_p), computes
//   t_u = A[b*L + j + u*L_p] * W_L^{j*u}          u = 0..r-1
//   A[b*L + j + k*L_p] = sum_u t_u * W_r^{u*k}    k = 0..r-1
// with every root conjugated for the inverse direction. Butterflies of
// one stage touch disjoint index sets, so any per-stage parallel split is
// race-free and bit-deterministic regardless of scheduling order.
//
// Sizes whose residue after 7-smooth extraction exceeds 1 (large-prime N)
// are not representable here; they route to the Bluestein chirp-z path,
// whose chirp primitive also lives in this header (the chirp is the same
// any-n unit-root evaluation, with j^2 reduced mod 2n before the trig).

#include <cstdint>
#include <span>
#include <vector>

#include "fft/twiddle.hpp"
#include "fft/types.hpp"

namespace c64fft::fft {

/// Stage-radix decomposition of n. `factors` holds the execution-order
/// stage radices of the 7-smooth part (8s, then 4/2 remainders, then 3s,
/// 5s, 7s); `residue` is what remains after extracting them (1 when n is
/// 7-smooth, i.e. `smooth`): factorize(12) has factors [4, 3], residue 1.
struct Factorization {
  std::vector<std::uint32_t> factors;
  std::uint64_t residue = 1;
  bool smooth = false;
};

Factorization factorize(std::uint64_t n);

/// Generalized digit reversal of `p` over the mixed-radix digit bases
/// `factors` (execution order). When every factor is 2 this is exactly
/// util::bit_reverse(p, factors.size()). Unlike bit reversal it is NOT an
/// involution for non-palindromic factor vectors: the inverse permutation
/// is digit reversal over the REVERSED factor list.
std::uint64_t digit_reverse(std::uint64_t p,
                            std::span<const std::uint32_t> factors);

struct MixedRadixStage {
  std::uint32_t radix = 0;
  std::uint64_t len = 0;       ///< transform length after this stage (r*prev)
  std::uint64_t prev_len = 0;  ///< transform length before this stage
  std::uint64_t twiddle_offset = 0;  ///< base into the flat twiddle vector
};

/// Geometry of a mixed-radix plan: the stage vector plus the precomputed
/// input permutation table (out[p] = in[perm[p]]). Twiddles are built
/// separately per precision/direction (mixed_radix_twiddles) so one plan
/// can back all four tables. Throws std::invalid_argument unless
/// 2 <= n < 2^32 and n is 7-smooth.
class MixedRadixPlan {
 public:
  explicit MixedRadixPlan(std::uint64_t n);

  std::uint64_t size() const noexcept { return n_; }
  const std::vector<std::uint32_t>& factors() const noexcept {
    return factorization_.factors;
  }
  const std::vector<MixedRadixStage>& stages() const noexcept { return stages_; }
  std::uint32_t stage_count() const noexcept {
    return static_cast<std::uint32_t>(stages_.size());
  }
  /// Input permutation: working[p] = input[permutation()[p]].
  std::span<const std::uint32_t> permutation() const noexcept { return perm_; }
  /// Total flat twiddle entries across all stages (always n - 1).
  std::uint64_t twiddle_count() const noexcept { return n_ - 1; }

 private:
  std::uint64_t n_ = 0;
  Factorization factorization_;
  std::vector<MixedRadixStage> stages_;
  std::vector<std::uint32_t> perm_;
};

/// Flat per-stage twiddle vector for `plan` (twiddle_count() entries):
/// stage s's butterfly (b, j) reads entries
/// [stage.twiddle_offset + j*(r-1) + (u-1)] = W_L^{j*u}, u = 1..r-1.
/// Angles always evaluate in double and narrow at store time, unit_root's
/// precision contract.
template <typename T>
std::vector<cplx_t<T>> mixed_radix_twiddles(const MixedRadixPlan& plan,
                                            TwiddleDirection direction);

/// Gather pass of the input permutation: dst[p] = src[perm[p]] for
/// p in [begin, end). src and dst must be distinct buffers of plan size.
template <typename T>
void mixed_radix_permute(const MixedRadixPlan& plan,
                         std::span<const cplx_t<T>> src,
                         std::span<cplx_t<T>> dst, std::uint64_t begin,
                         std::uint64_t end);

/// Run butterflies [g_begin, g_end) of `stage` (g in [0, n/r), block
/// b = g / L_p, offset j = g % L_p). src and dst may alias exactly
/// (in-place) or be fully disjoint buffers (the permuted-scratch ->
/// data stage-0 pass); each butterfly writes the same indices it reads.
/// Runs the active kernel table's `mixed_stage` entry: the SIMD tables
/// put one butterfly per lane (consecutive offsets j, or consecutive
/// blocks when L_p = 1) and keep the scalar operation order, so every
/// table is bit-identical to mixed_stage_scalar.
template <typename T>
void run_mixed_radix_stage(const MixedRadixPlan& plan, std::uint32_t stage,
                           std::span<const cplx_t<T>> twiddles,
                           std::span<const cplx_t<T>> src,
                           std::span<cplx_t<T>> dst, std::uint64_t g_begin,
                           std::uint64_t g_end, TwiddleDirection direction);

/// The scalar stage body with the radix fixed at compile time: the
/// scalar table's `mixed_stage` entry, the SIMD tables' tail, and the
/// bit-exact oracle both are tested against. `tw` points at the stage's
/// slice of the flat twiddle vector (twiddles + stage.twiddle_offset).
template <typename T>
void mixed_stage_scalar(const MixedRadixStage& stage, const cplx_t<T>* tw,
                        const cplx_t<T>* src, cplx_t<T>* dst,
                        std::uint64_t g_begin, std::uint64_t g_end,
                        bool inverse);

/// Codelet DFT-matrix constants of an odd radix R in {3, 5, 7}:
/// c[k-1][j-1] = cos(2*pi*k*j/R), s[k-1][j-1] = sin(2*pi*k*j/R) for k, j
/// in [1, (R-1)/2]. Evaluated once in double; the f32 codelet narrows at
/// use, so both precisions share one correctly rounded constant set. One
/// definition (mixed_radix.cpp) serves every kernel table.
template <unsigned R>
struct OddRadixConstants {
  double c[(R - 1) / 2][(R - 1) / 2];
  double s[(R - 1) / 2][(R - 1) / 2];
};

template <unsigned R>
const OddRadixConstants<R>& odd_radix_constants();

/// Whole-transform serial convenience (tests, reference checks): permutes
/// `data` through `scratch` (resized to plan size) and runs every stage.
template <typename T>
void mixed_radix_serial(const MixedRadixPlan& plan,
                        std::span<const cplx_t<T>> twiddles,
                        std::span<cplx_t<T>> data,
                        std::vector<cplx_t<T>>& scratch,
                        TwiddleDirection direction);

/// Bluestein chirp c[j] = exp(-pi*i*j^2/n) (conjugated for kInverse),
/// evaluated as the (2n)-th unit root at j^2 mod 2n — the reduction runs
/// in 128-bit so j^2 cannot overflow — keeping it bit-identical to the
/// table-free unit_root every other path uses.
template <typename T>
cplx_t<T> bluestein_chirp(std::uint64_t n, std::uint64_t j,
                          TwiddleDirection direction);

/// Convolution length of the Bluestein path: next_pow2(2n - 1). Throws
/// std::invalid_argument unless 2 <= n <= kMaxBluesteinSize (fft/plan.hpp),
/// so M never wraps and always fits one sweep.
std::uint64_t bluestein_fft_size(std::uint64_t n);

}  // namespace c64fft::fft
