#pragma once
// FftExecutorTestPeer: the one way a test reaches a route that routing
// never picks for its size. Routing is a function of N alone, so a test
// that needs the classic plan at 2^18+, the hierarchical pipeline below
// 2^18, or Bluestein over a hierarchical convolution acquires plan
// entries of that kind from the executor's own cache and runs them
// through the executor's own locked dispatch — the body, team, scratch
// and stats counters a routed call would use.

#include <cstdint>
#include <memory>
#include <span>

#include "fft/executor.hpp"

namespace c64fft::fft {

struct FftExecutorTestPeer {
  /// The plan a forced call runs: the top-level kind and Bluestein's
  /// convolution kind (ignored otherwise).
  struct Route {
    PlanKind kind = PlanKind::kClassic;
    PlanKind conv = PlanKind::kClassic;
  };

  /// forward_batch / inverse_batch (scaled by 1/N like the public
  /// wrappers) over `route` on the executor's default team.
  template <typename T>
  static void run(FftExecutor& ex, std::span<const std::span<cplx_t<T>>> batch,
                  Route route, TwiddleDirection dir) {
    const std::uint64_t n = batch.front().size();
    const std::shared_ptr<const PlanEntry> entry =
        ex.cache_.acquire(PlanKey{n, route.kind, precision_of<T>});
    std::shared_ptr<const PlanEntry> conv;
    if (route.kind == PlanKind::kBluestein)
      conv = ex.cache_.acquire(
          PlanKey{bluestein_fft_size(n), route.conv, precision_of<T>});
    ex.dispatch_t<T>(*entry, conv.get(), batch, ex.default_workers(), dir);
    if (dir == TwiddleDirection::kForward) return;
    const T scale = static_cast<T>(1.0 / static_cast<double>(n));
    for (const std::span<cplx_t<T>>& t : batch)
      for (cplx_t<T>& v : t) v *= scale;
  }

  /// One transform: forward / inverse over `route`.
  template <typename T>
  static void run(FftExecutor& ex, std::span<cplx_t<T>> data, Route route,
                  TwiddleDirection dir) {
    const std::span<cplx_t<T>> one[1] = {data};
    run<T>(ex, std::span<const std::span<cplx_t<T>>>(one), route, dir);
  }
};

/// Shorthands for the routes tests force most.
inline constexpr FftExecutorTestPeer::Route kClassicRoute{PlanKind::kClassic};
inline constexpr FftExecutorTestPeer::Route kHierarchicalRoute{
    PlanKind::kHierarchical};

}  // namespace c64fft::fft
