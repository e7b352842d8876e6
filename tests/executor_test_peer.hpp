#pragma once
// FftExecutorTestPeer: the one way a test reaches a route that routing
// never picks for its size. Routing is a function of N alone, so a test
// that needs the classic plan at 2^18+, the hierarchical pipeline below
// 2^18, or Bluestein over a hierarchical convolution runs a plan entry of
// that kind through the executor's own locked dispatch (run_resolved) —
// the body, team, scratch and stats counters a routed call would use.
// Classic and hierarchical entries come from the executor's cache under
// their forced key; a Bluestein entry is built outside the cache over a
// convolution acquired under the forced key (the cache's own Bluestein
// entries pin the routed convolution).

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

  /// forward_batch / inverse_batch over `route` on the executor's own
  /// team: one group whose entry is set before the executor's locked half
  /// of run_groups runs it.
  template <typename T>
  static void run(FftExecutor& ex, std::span<const std::span<cplx_t<T>>> batch,
                  Route route, TwiddleDirection dir) {
    const std::uint64_t n = batch.front().size();
    const PlanKey key{n, route.kind, precision_of<T>};
    BatchGroup group(batch, dir);
    group.entry_ =
        route.kind == PlanKind::kBluestein
            ? std::make_shared<const PlanEntry>(
                  key, ex.cache_.acquire(PlanKey{bluestein_fft_size(n),
                                                 route.conv, precision_of<T>}))
            : ex.cache_.acquire(key);
    ex.run_resolved(std::span<BatchGroup>(&group, 1), ex.opts_.workers);
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
