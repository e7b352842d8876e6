// Seeded differential fuzz of the production transforms (ctest label
// `fuzz`). Each draw picks N in [2, 2^22], weighted toward primes,
// 7-smooth composites, pow2 sizes around the 2^18 pipeline threshold and
// N >= 65537 (whose Bluestein convolution is pipelined), and crosses it
// with precision, team size 1-4, kernel ISA tier, batch size and
// direction. Every draw checks:
//   * sampled output bins against a naive DFT summed in long double, in
//     peak-ULPs (util/ulp.hpp's unit, over the sampled bins' peak);
//   * the round trip back to the input, in peak-ULPs of the input;
//   * bit identity of the batch against a loop of single calls, against
//     another team size (named per call, and as {} on an executor built
//     with that size), against the other ISA tier, and against the same
//     transforms served through an owned FftServer, in a round beside a
//     small transform of another shape and the other direction.
// Draw i is a function of i alone, so the sequence is fixed. The default
// run is the first kDefaultDraws draws, less the few whose Bluestein
// convolution is above 2^21 points (soak_only); C64FFT_FUZZ_ITERS=<count>
// runs the first <count> draws, every one (the variable is read here
// only). A failure names its draw index and parameters.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <numbers>
#include <span>
#include <string>
#include <vector>

#include "fft/executor.hpp"
#include "fft/kernels/dispatch.hpp"
#include "fft/mixed_radix.hpp"
#include "fft/plan.hpp"
#include "serve/server.hpp"
#include "util/cpu_features.hpp"
#include "util/prng.hpp"
#include "util/ulp.hpp"

namespace c64fft::fft {
namespace {

constexpr std::uint64_t kSeed = 0xF0225EEDC64FULL;
constexpr std::uint64_t kDefaultDraws = 48;
constexpr std::uint64_t kMaxN = std::uint64_t{1} << 22;

/// The tier the test found active, restored on scope exit like
/// test_kernel's IsaGuard, so forcing one never leaks into later tests.
struct IsaGuard {
  util::IsaLevel saved = kernels::active_kernel_isa();
  ~IsaGuard() { kernels::set_kernel_isa(saved); }
};

/// The soak's draw count from C64FFT_FUZZ_ITERS; 0 (the default run)
/// when it is unset or not a positive integer.
std::uint64_t soak_draws() {
  const char* env = std::getenv("C64FFT_FUZZ_ITERS");
  if (env == nullptr) return 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(env, &end, 10);
  return (end != env && *end == '\0') ? v : 0;
}

bool is_prime(std::uint64_t n) {
  if (n < 2) return false;
  for (std::uint64_t d = 2; d * d <= n; ++d)
    if (n % d == 0) return false;
  return true;
}

/// floor(2^u) for u uniform over [log2 lo, log2 hi].
std::uint64_t log_uniform(util::Xoshiro256& rng, std::uint64_t lo,
                          std::uint64_t hi) {
  const double a = std::log2(static_cast<double>(lo));
  const double b = std::log2(static_cast<double>(hi));
  const auto v =
      static_cast<std::uint64_t>(std::exp2(a + rng.next_double() * (b - a)));
  return std::clamp(v, lo, hi);
}

struct Draw {
  std::uint64_t index = 0;
  std::uint64_t n = 0;
  const char* size_class = "";
  bool f32 = false;
  unsigned workers = 1;
  util::IsaLevel isa = util::IsaLevel::kScalar;
  std::size_t batch = 1;
  bool inverse = false;
};

Draw make_draw(std::uint64_t index, std::span<const util::IsaLevel> tiers) {
  util::Xoshiro256 rng(kSeed + index);
  Draw d;
  d.index = index;
  const std::uint64_t c = rng.next_below(20);
  if (c < 5) {
    d.size_class = "prime";
    d.n = log_uniform(rng, 2, kMaxN);
    while (!is_prime(d.n)) --d.n;
  } else if (c < 10) {
    // A 7-smooth composite with an odd factor: mixed-radix.
    d.size_class = "7-smooth";
    const std::uint64_t target = log_uniform(rng, 6, kMaxN);
    static constexpr std::uint64_t kOdd[] = {3, 5, 7};
    static constexpr std::uint64_t kAny[] = {2, 3, 5, 7};
    d.n = kOdd[rng.next_below(3)];
    for (std::uint64_t f = kAny[rng.next_below(4)]; d.n * f <= target;
         f = kAny[rng.next_below(4)])
      d.n *= f;
  } else if (c < 14) {
    d.size_class = "pow2 near 2^18";
    d.n = std::uint64_t{1} << (15 + rng.next_below(7));
  } else if (c < 17) {
    // Bluestein over a pipelined convolution: M >= 2^18.
    d.size_class = "N>=65537 bluestein";
    d.n = log_uniform(rng, 65537, kMaxN);
    while (routed_plan_kind(d.n) != PlanKind::kBluestein) ++d.n;
  } else {
    d.size_class = "any";
    d.n = log_uniform(rng, 2, kMaxN);
  }
  d.f32 = rng.next_below(2) == 0;
  d.workers = 1 + static_cast<unsigned>(rng.next_below(4));
  d.isa = tiers[rng.next_below(tiers.size())];
  static constexpr std::size_t kBatches[] = {1, 1, 1, 2, 3, 5, 8};
  d.batch = d.n <= (std::uint64_t{1} << 16) ? kBatches[rng.next_below(7)] : 1;
  d.inverse = rng.next_below(2) == 0;
  return d;
}

/// The route routing picks for N, Bluestein split by its convolution.
enum class Route {
  kClassic,
  kHierarchical,
  kMixedRadix,
  kBluesteinClassic,
  kBluesteinHierarchical,
};

Route route_of(std::uint64_t n) {
  switch (routed_plan_kind(n)) {
    case PlanKind::kClassic: return Route::kClassic;
    case PlanKind::kHierarchical: return Route::kHierarchical;
    case PlanKind::kMixedRadix: return Route::kMixedRadix;
    case PlanKind::kBluestein: break;
  }
  return routed_plan_kind(bluestein_fft_size(n)) == PlanKind::kClassic
             ? Route::kBluesteinClassic
             : Route::kBluesteinHierarchical;
}

/// A draw whose Bluestein convolution is above 2^21 points costs 5-15 s
/// (cold plan builds on three executors), so only a soak runs it.
bool soak_only(const Draw& d) {
  return routed_plan_kind(d.n) == PlanKind::kBluestein &&
         bluestein_fft_size(d.n) > (std::uint64_t{1} << 21);
}

const char* to_string(Route r) {
  switch (r) {
    case Route::kClassic: return "classic";
    case Route::kHierarchical: return "hierarchical";
    case Route::kMixedRadix: return "mixed-radix";
    case Route::kBluesteinClassic: return "bluestein/classic";
    case Route::kBluesteinHierarchical: return "bluestein/hierarchical";
  }
  return "?";
}

std::string describe(const Draw& d) {
  return "draw " + std::to_string(d.index) + ": n=" + std::to_string(d.n) +
         " (" + d.size_class + ", " + to_string(route_of(d.n)) + ") " +
         (d.f32 ? "f32" : "f64") + " workers=" + std::to_string(d.workers) +
         " isa=" + util::to_string(d.isa) + " batch=" +
         std::to_string(d.batch) + (d.inverse ? " inverse" : " forward");
}

/// Peak-ULP budgets {naive DFT, round trip} per precision and route.
/// Where test_ulp.cpp has one it is used: 24 for f32 classic and
/// mixed-radix transforms and the f32 pow2 round trip, twice that for f32
/// Bluestein transforms (over a classic convolution) and non-pow2 round
/// trips, 64 for the f64 hierarchical route. Each other budget is twice
/// the worst a 1,000-draw soak of this test measured, rounded up to a
/// power of two (CHANGES.md lists the measured values). The hierarchical
/// route's round trips lose about 20x what the classic route's do: each
/// fused inter-step twiddle is a power of a per-row step that is itself
/// a recurrence, so a tile's far corner carries the step's rounding error
/// ~15 times over (transpose_twiddle_tile_panel).
struct Budget {
  double dft;
  double round_trip;
};

Budget budget_of(bool f32, Route route) {
  if (f32) {
    switch (route) {
      case Route::kClassic: return {24, 24};
      case Route::kMixedRadix: return {24, 48};
      case Route::kBluesteinClassic: return {48, 48};
      case Route::kHierarchical: return {64, 512};
      case Route::kBluesteinHierarchical: return {64, 1024};
    }
  }
  switch (route) {
    case Route::kClassic: return {16, 32};
    case Route::kMixedRadix: return {16, 64};
    case Route::kBluesteinClassic: return {32, 128};
    case Route::kHierarchical: return {64, 1024};
    case Route::kBluesteinHierarchical: return {128, 1024};
  }
  return {0, 0};
}

/// One bin of the naive DFT of x, summed in long double:
/// sum_j x[j] exp(-+2 pi i jk/N), times 1/N for the inverse. The twiddle
/// advances by a product recurrence, reseeded exactly every 32 terms.
template <typename T>
std::complex<long double> naive_bin(std::span<const std::complex<T>> x,
                                    std::uint64_t k, bool inverse) {
  const std::uint64_t n = x.size();
  const long double turn = (inverse ? 2 : -2) *
                           std::numbers::pi_v<long double> /
                           static_cast<long double>(n);
  const auto root = [&](std::uint64_t m, long double& re, long double& im) {
    const long double a = turn * static_cast<long double>(m % n);
    re = std::cos(a);
    im = std::sin(a);
  };
  long double step_re, step_im, w_re = 1, w_im = 0, acc_re = 0, acc_im = 0;
  root(k, step_re, step_im);
  for (std::uint64_t j = 0; j < n; ++j) {
    if (j % 32 == 0) root(j * k, w_re, w_im);
    const long double xr = x[j].real(), xi = x[j].imag();
    acc_re += xr * w_re - xi * w_im;
    acc_im += xr * w_im + xi * w_re;
    const long double t = w_re * step_re - w_im * step_im;
    w_im = w_re * step_im + w_im * step_re;
    w_re = t;
  }
  if (inverse) {
    acc_re /= static_cast<long double>(n);
    acc_im /= static_cast<long double>(n);
  }
  return {acc_re, acc_im};
}

/// Every bin up to 256 points; above, 16 bins: 0, 1, N/2, N-1 and 12
/// drawn ones.
std::vector<std::uint64_t> sampled_bins(std::uint64_t n,
                                        util::Xoshiro256& rng) {
  std::vector<std::uint64_t> bins;
  if (n <= 256) {
    for (std::uint64_t k = 0; k < n; ++k) bins.push_back(k);
    return bins;
  }
  bins = {0, 1, n / 2, n - 1};
  for (int i = 0; i < 12; ++i) bins.push_back(rng.next_below(n));
  return bins;
}

/// Folds `v` into the running maximum `worst`; a non-finite `v` makes it
/// +inf for good (std::max alone would drop a NaN).
void fold(double& worst, double v) {
  worst = std::isfinite(v) ? std::max(worst, v)
                           : std::numeric_limits<double>::infinity();
}

/// Largest real or imaginary magnitude in `v` (+inf if any is not finite).
template <typename T>
double peak_of(std::span<const std::complex<T>> v) {
  double peak = 0;
  for (const std::complex<T>& x : v) {
    fold(peak, std::abs(static_cast<double>(x.real())));
    fold(peak, std::abs(static_cast<double>(x.imag())));
  }
  return peak;
}

/// Largest |got - want| component over `bins`, in precision-T ULPs of the
/// binade of got's peak component over all N bins: util/ulp.hpp's unit,
/// with the output's peak standing in for the reference's (the round-trip
/// check bounds how far the output can stray from the true spectrum).
template <typename T>
double sampled_peak_ulps(std::span<const std::complex<T>> input,
                         std::span<const std::complex<T>> got,
                         std::span<const std::uint64_t> bins, bool inverse) {
  const double peak = peak_of(got);
  if (!std::isfinite(peak)) return peak;
  const double ulp = util::ulp_at<T>(peak > 0 ? peak : 1.0);
  double worst = 0;
  for (const std::uint64_t k : bins) {
    const std::complex<long double> want = naive_bin<T>(input, k, inverse);
    fold(worst, static_cast<double>(std::abs(got[k].real() - want.real())) / ulp);
    fold(worst, static_cast<double>(std::abs(got[k].imag() - want.imag())) / ulp);
  }
  return worst;
}

/// Largest |got - want| component, in precision-T ULPs of the binade of
/// want's peak component (util::max_ulp_error's metric, want in T).
template <typename T>
double peak_ulps(std::span<const std::complex<T>> got,
                 std::span<const std::complex<T>> want) {
  const double ulp = util::ulp_at<T>(peak_of(want));
  double worst = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    fold(worst, std::abs(static_cast<double>(got[i].real()) - want[i].real()) / ulp);
    fold(worst, std::abs(static_cast<double>(got[i].imag()) - want[i].imag()) / ulp);
  }
  return worst;
}

/// A batch of transforms of one length, with spans over its buffers.
template <typename T>
struct Batch {
  std::vector<std::vector<std::complex<T>>> bufs;

  std::vector<std::span<std::complex<T>>> spans() {
    return {bufs.begin(), bufs.end()};
  }
  bool same_bytes(const Batch& other) const {
    for (std::size_t b = 0; b < bufs.size(); ++b)
      if (std::memcmp(bufs[b].data(), other.bufs[b].data(),
                      bufs[b].size() * sizeof(std::complex<T>)) != 0)
        return false;
    return true;
  }
};

/// The fixture's executors and servers: one executor built with each team
/// size 1-4 and, made on first use, one owned server per team size.
struct Rig {
  std::vector<std::unique_ptr<FftExecutor>> executors;
  std::vector<std::unique_ptr<serve::FftServer>> servers;

  Rig() : servers(4) {
    for (unsigned w = 1; w <= 4; ++w)
      executors.push_back(std::make_unique<FftExecutor>(ExecutorOptions{w}));
  }
  FftExecutor& executor(unsigned w) { return *executors[w - 1]; }
  serve::FftServer& server(unsigned w) {
    if (!servers[w - 1]) {
      serve::ServerOptions so;
      so.workers = w;
      servers[w - 1] = std::make_unique<serve::FftServer>(so);
    }
    return *servers[w - 1];
  }
};

/// Drops an executor's plans and scratch after a large draw, so those of
/// a Bluestein draw over M = 2^23 points (~400 MB of tables alone) never
/// pile up across the rig's executors and servers.
void release(FftExecutor& ex) {
  ex.clear_cache();
  ex.shutdown();
}

template <typename T>
void run(FftExecutor& ex, Batch<T>& batch, bool inverse,
         const HostFftOptions& opts = {}) {
  const std::vector<std::span<std::complex<T>>> spans = batch.spans();
  if (inverse)
    ex.inverse_batch(spans, opts);
  else
    ex.forward_batch(spans, opts);
}

/// Worst accuracy readings per route and precision, printed at the end
/// so a soak run reports the margins its budgets keep.
struct Worst {
  std::string key;
  double dft = 0;
  double round_trip = 0;
};

Worst& worst_for(std::vector<Worst>& table, const Draw& d) {
  const std::string key =
      std::string(d.f32 ? "f32 " : "f64 ") + to_string(route_of(d.n));
  for (Worst& w : table)
    if (w.key == key) return w;
  table.push_back({key});
  return table.back();
}

template <typename T>
void check_draw(const Draw& d, Rig& rig, util::IsaLevel other_isa,
                std::vector<Worst>& table) {
  util::Xoshiro256 rng(kSeed ^ (d.index * 0x9E3779B97F4A7C15ULL));
  Batch<T> input;
  for (std::size_t b = 0; b < d.batch; ++b) {
    std::vector<std::complex<T>> v(d.n);
    for (std::complex<T>& x : v)
      x = {static_cast<T>(rng.next_double() * 2 - 1),
           static_cast<T>(rng.next_double() * 2 - 1)};
    input.bufs.push_back(std::move(v));
  }
  const unsigned w = d.workers;
  const unsigned w2 = w % 4 + 1;
  const bool large = d.n > (std::uint64_t{1} << 16);
  FftExecutor& ex = rig.executor(w);
  kernels::set_kernel_isa(d.isa);

  // Reference: the batch on the draw's executor, on its own team.
  Batch<T> ref = input;
  run(ex, ref, d.inverse);

  // Accuracy: sampled bins of the first transform, and the round trip.
  const std::vector<std::uint64_t> bins = sampled_bins(d.n, rng);
  const double dft = sampled_peak_ulps<T>(input.bufs[0], ref.bufs[0], bins,
                                          d.inverse);
  const Budget budget = budget_of(d.f32, route_of(d.n));
  EXPECT_LE(dft, budget.dft) << "naive DFT, peak-ULPs";
  Batch<T> work = ref;
  run(ex, work, !d.inverse);
  double rt = 0;
  for (std::size_t b = 0; b < d.batch; ++b)
    rt = std::max(rt, peak_ulps<T>(work.bufs[b], input.bufs[b]));
  EXPECT_LE(rt, budget.round_trip) << "round trip, peak-ULPs";
  Worst& worst = worst_for(table, d);
  worst.dft = std::max(worst.dft, dft);
  worst.round_trip = std::max(worst.round_trip, rt);

  // Batch vs a loop of single calls naming the team size.
  work = input;
  for (std::span<std::complex<T>> t : work.spans()) {
    if (d.inverse)
      ex.inverse(t, {w});
    else
      ex.forward(t, {w});
  }
  EXPECT_TRUE(work.same_bytes(ref)) << "batch vs loop";

  // Another team size: named per call (the executor respawns its team),
  // and as {} on the executor built with that size.
  work = input;
  run(ex, work, d.inverse, {w2});
  EXPECT_TRUE(work.same_bytes(ref)) << "workers " << w << " vs " << w2;
  work = input;
  run(rig.executor(w2), work, d.inverse);
  EXPECT_TRUE(work.same_bytes(ref))
      << "workers " << w << " vs {} on a " << w2 << "-worker executor";
  if (large) release(rig.executor(w2));

  // The other ISA tier (the same one on a host with only one).
  kernels::set_kernel_isa(other_isa);
  work = input;
  run(ex, work, d.inverse);
  EXPECT_TRUE(work.same_bytes(ref))
      << util::to_string(d.isa) << " vs " << util::to_string(other_isa);
  kernels::set_kernel_isa(d.isa);

  // Served through an owned server of the draw's team size, beside a
  // companion transform of another shape and the other direction, so the
  // dispatch round's one executor call holds (at least) two groups.
  static constexpr std::uint64_t kCompanionSizes[] = {64, 96, 101};
  util::Xoshiro256 companion_rng(d.index);
  Batch<T> companion;
  companion.bufs.emplace_back(kCompanionSizes[d.index % 3]);
  for (std::complex<T>& x : companion.bufs[0])
    x = {static_cast<T>(companion_rng.next_double() * 2 - 1),
         static_cast<T>(companion_rng.next_double() * 2 - 1)};
  Batch<T> companion_ref = companion;
  run(ex, companion_ref, !d.inverse);
  serve::FftServer& server = rig.server(w);
  serve::TenantQuota quota;
  quota.max_arena_bytes = 0;
  quota.max_plan_shapes = 2;
  const serve::TenantId tenant = server.add_tenant(quota);
  work = input;
  std::vector<serve::Ticket> tickets;
  const auto submit = [&](std::span<std::complex<T>> t, bool inverse) {
    serve::SubmitResult r = server.submit(
        tenant, t,
        inverse ? serve::Direction::kInverse : serve::Direction::kForward);
    ASSERT_EQ(r.status, serve::SubmitStatus::kAccepted);
    tickets.push_back(std::move(r.ticket));
  };
  for (std::span<std::complex<T>> t : work.spans()) submit(t, d.inverse);
  submit(companion.bufs[0], !d.inverse);
  for (serve::Ticket& t : tickets)
    EXPECT_EQ(t.wait().status, serve::RequestStatus::kOk);
  EXPECT_TRUE(work.same_bytes(ref)) << "served vs direct";
  EXPECT_TRUE(companion.same_bytes(companion_ref))
      << "served companion n=" << companion.bufs[0].size() << " vs direct";
  if (large) {
    release(server.executor());
    release(ex);
  }
}

TEST(Fuzz, DrawsMatchTheNaiveDftAndEveryRouteAgrees) {
  IsaGuard guard;
  std::vector<util::IsaLevel> tiers = {util::IsaLevel::kScalar};
  if (util::best_supported_isa() != util::IsaLevel::kScalar)
    tiers.push_back(util::best_supported_isa());
  const std::uint64_t soak = soak_draws();
  const std::uint64_t draws = soak != 0 ? soak : kDefaultDraws;
  Rig rig;
  std::vector<Worst> table;
  std::uint64_t skipped = 0;
  for (std::uint64_t i = 0; i < draws; ++i) {
    const Draw d = make_draw(i, tiers);
    if (soak == 0 && soak_only(d)) {
      ++skipped;
      continue;
    }
    SCOPED_TRACE(describe(d));
    const util::IsaLevel other_isa = d.isa == tiers.back() ? tiers.front()
                                                           : tiers.back();
    if (d.f32)
      check_draw<float>(d, rig, other_isa, table);
    else
      check_draw<double>(d, rig, other_isa, table);
    if (HasFailure()) {
      std::printf("FAILED %s\n", describe(d).c_str());
      break;
    }
  }
  std::sort(table.begin(), table.end(),
            [](const Worst& a, const Worst& b) { return a.key < b.key; });
  std::printf("%llu draws (%llu soak-only skipped); worst peak-ULPs "
              "(naive DFT, round trip):\n",
              static_cast<unsigned long long>(draws),
              static_cast<unsigned long long>(skipped));
  for (const Worst& w : table)
    std::printf("  %-28s %8.2f %8.2f\n", w.key.c_str(), w.dft, w.round_trip);
}

}  // namespace
}  // namespace c64fft::fft
