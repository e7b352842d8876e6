// fft_loadgen — mixed-traffic load generator for the FftServer front-end.
//
// Simulates N clients (round-robined over tenants, priority lanes,
// transform sizes, and precisions), each keeping `outstanding` requests
// in flight against one FftServer. Traffic is callback-driven: every
// request's completion immediately resubmits its buffer in the opposite
// direction (forward/inverse alternation keeps the signal bounded — a
// round trip is numerically ~identity), so the server runs saturated the
// way a busy async front-end does, with zero per-request client-thread
// wakeups polluting the measurement. Every buffer is a zero-copy
// BufferArena lease, filled once and transformed in place for the whole
// run.
//
// Modes:
//   --mode=compare     run BOTH a coalesced (each dispatch round one
//                      executor call of one phase for all its groups)
//                      and an uncoalesced (window=0, max-coalesce=1: one
//                      request per round) pass and report the speedup —
//                      the BENCH-gated configuration
//   --mode=coalesced   one coalesced pass
//   --mode=uncoalesced one baseline pass
//
// Reports per pass: transforms/sec, p50/p99/mean/max latency, realized
// coalescing factor (transforms per coalesced group), peak queue depth,
// scheduler phases per dispatch round, plan-cache and arena stats, and
// the steady-state allocation count. It is measured, not asserted from
// faith: this binary implements the util/alloc_probe.hpp operator-new
// counter, which counts every thread of the process — the dispatcher,
// which runs submit, drain, group and complete in callback mode, every
// team worker, and this thread's polling. A zero delta across the
// measured window (--assert-zero-alloc) certifies the whole
// submit→complete path.
//
// --json emits the passes as google-benchmark rows (LG_ServeCoalesced /
// LG_ServeUncoalesced; real_time = wall ns per transform) so
// tools/bench_check can gate them against BENCH_baseline.json and ratio-
// gate the coalescing speedup (see tools/run_loadgen_check.cmake).
//
// Exit status: 0 ok, 1 failed assertion (--assert-*), 2 usage/setup.

#define C64FFT_ALLOC_PROBE_IMPLEMENT
#include "util/alloc_probe.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "codelet/team.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"

namespace {

using namespace c64fft;
using Clock = std::chrono::steady_clock;

struct ClientShape {
  serve::TenantId tenant = 0;
  std::uint64_t n = 0;
  fft::Precision precision = fft::Precision::kF64;
  serve::Lane lane = serve::Lane::kNormal;
  std::uint64_t seed = 1;
};

/// Counters shared by every flight of one pass.
struct SharedCounters {
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> errors{0};
  std::atomic<std::uint64_t> rejected{0};
  std::atomic<std::uint64_t> inflight{0};
  std::atomic<bool> stop{false};
};

/// One self-resubmitting in-flight request: its own arena buffer
/// (concurrent transforms must never share one) alternating directions
/// independently. Lives at a stable address for the whole pass — the
/// completion callback context.
struct Flight {
  serve::FftServer* server = nullptr;
  SharedCounters* shared = nullptr;
  serve::BufferLease lease;
  ClientShape shape;
  serve::Direction next = serve::Direction::kForward;
};

void resubmit(Flight& f);

void on_complete(void* ctx, const serve::Completion& done) {
  Flight& f = *static_cast<Flight*>(ctx);
  SharedCounters& sh = *f.shared;
  if (done.status == serve::RequestStatus::kOk)
    sh.completed.fetch_add(1, std::memory_order_relaxed);
  else
    sh.errors.fetch_add(1, std::memory_order_relaxed);
  if (sh.stop.load(std::memory_order_relaxed)) {
    sh.inflight.fetch_sub(1, std::memory_order_release);
    return;
  }
  resubmit(f);
}

void resubmit(Flight& f) {
  const serve::SubmitResult r =
      f.shape.precision == fft::Precision::kF64
          ? f.server->submit(f.shape.tenant, f.lease.as<fft::cplx>(), f.next,
                             f.shape.lane, &on_complete, &f)
          : f.server->submit(f.shape.tenant, f.lease.as<fft::cplx32>(), f.next,
                             f.shape.lane, &on_complete, &f);
  if (r.status != serve::SubmitStatus::kAccepted) {
    f.shared->rejected.fetch_add(1, std::memory_order_relaxed);
    f.shared->inflight.fetch_sub(1, std::memory_order_release);
    return;
  }
  f.next = f.next == serve::Direction::kForward ? serve::Direction::kInverse
                                                : serve::Direction::kForward;
}

std::uint64_t splitmix64(std::uint64_t& state) {
  state += 0x9e3779b97f4a7c15ull;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

template <typename T>
void fill_signal(std::span<std::complex<T>> data, std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& v : data) {
    // Uniform in [-1, 1): bounded magnitude, deterministic per flight.
    const double re = static_cast<double>(splitmix64(s) >> 11) * 0x1p-52 * 2.0 - 1.0;
    const double im = static_cast<double>(splitmix64(s) >> 11) * 0x1p-52 * 2.0 - 1.0;
    v = {static_cast<T>(re), static_cast<T>(im)};
  }
}

struct LoadConfig {
  unsigned clients = 8;
  unsigned tenants = 4;
  unsigned outstanding = 4;
  std::vector<std::uint64_t> sizes;
  bool mixed_precision = true;
  fft::Precision fixed_precision = fft::Precision::kF64;
  std::uint64_t seed = 42;
  unsigned warmup_ms = 100;
  unsigned duration_ms = 400;
  unsigned workers = 1;
  std::size_t queue_capacity = 256;
};

struct PassResult {
  std::string name;
  std::uint64_t completed = 0;  // measured-window completions
  std::uint64_t rejected = 0;
  std::uint64_t errors = 0;
  std::uint64_t allocs = 0;  // allocations on every thread in the window
  double wall_seconds = 0.0;
  double throughput = 0.0;  // transforms/sec over the measured window
  std::uint64_t queue_depth_max = 0;
  serve::ServerStats stats;  // end-of-pass server snapshot
};

PassResult run_pass(const std::string& name, const LoadConfig& cfg,
                    std::uint32_t window_us, std::uint32_t max_coalesce) {
  serve::ServerOptions so;
  so.queue_capacity = cfg.queue_capacity;
  so.coalesce_window_us = window_us;
  so.max_coalesce = max_coalesce;
  so.workers = cfg.workers;
  const std::uint64_t max_n =
      *std::max_element(cfg.sizes.begin(), cfg.sizes.end());
  so.arena.slab_bytes = max_n * sizeof(fft::cplx);
  so.arena.slab_count = std::size_t{cfg.clients} * cfg.outstanding + 4;
  serve::FftServer server(so);

  // Every tenant gets room for all its flights' slabs and for every
  // (size, precision) combination in the mix — loadgen stresses the
  // steady state, not the rejection paths (tests/test_serve does that).
  const unsigned per_tenant =
      ((cfg.clients + cfg.tenants - 1) / cfg.tenants + 1) * cfg.outstanding;
  std::vector<serve::TenantId> tenants(cfg.tenants);
  for (unsigned t = 0; t < cfg.tenants; ++t) {
    serve::TenantQuota q;
    q.max_arena_bytes = so.arena.slab_bytes * per_tenant;
    q.max_plan_shapes = cfg.sizes.size() * 2;
    tenants[t] = server.add_tenant(q);
  }

  SharedCounters shared;
  std::vector<Flight> flights(std::size_t{cfg.clients} * cfg.outstanding);
  std::uint64_t seed_state = cfg.seed;
  PassResult pass;
  pass.name = name;
  for (unsigned c = 0; c < cfg.clients; ++c) {
    ClientShape shape;
    shape.tenant = tenants[c % cfg.tenants];
    shape.n = cfg.sizes[c % cfg.sizes.size()];
    shape.precision = cfg.mixed_precision
                          ? ((c / 2) % 2 == 0 ? fft::Precision::kF64
                                              : fft::Precision::kF32)
                          : cfg.fixed_precision;
    shape.lane = static_cast<serve::Lane>(c % serve::kLaneCount);
    const std::size_t elem = shape.precision == fft::Precision::kF64
                                 ? sizeof(fft::cplx)
                                 : sizeof(fft::cplx32);
    for (unsigned o = 0; o < cfg.outstanding; ++o) {
      Flight& f = flights[std::size_t{c} * cfg.outstanding + o];
      f.server = &server;
      f.shared = &shared;
      f.shape = shape;
      f.shape.seed = splitmix64(seed_state);
      auto leased = server.arena().lease(shape.tenant, shape.n * elem);
      if (leased.status != serve::LeaseStatus::kOk) {
        ++pass.errors;
        continue;
      }
      f.lease = std::move(leased.lease);
      if (shape.precision == fft::Precision::kF64)
        fill_signal<double>(f.lease.as<fft::cplx>(), f.shape.seed);
      else
        fill_signal<float>(f.lease.as<fft::cplx32>(), f.shape.seed);
    }
  }

  // Launch every flight; from here the traffic self-sustains via the
  // completion callbacks until `stop` is raised.
  std::uint64_t launched = 0;
  for (Flight& f : flights)
    if (f.lease.valid()) ++launched;
  shared.inflight.store(launched, std::memory_order_relaxed);
  for (Flight& f : flights)
    if (f.lease.valid()) resubmit(f);

  std::this_thread::sleep_for(std::chrono::milliseconds(cfg.warmup_ms));
  const std::uint64_t c0 = shared.completed.load(std::memory_order_relaxed);
  const std::uint64_t allocs0 = util::alloc_count();
  const Clock::time_point t0 = Clock::now();
  const Clock::time_point deadline =
      t0 + std::chrono::milliseconds(cfg.duration_ms);
  while (Clock::now() < deadline) {
    pass.queue_depth_max =
        std::max(pass.queue_depth_max, server.stats().queue_depth);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const std::uint64_t c1 = shared.completed.load(std::memory_order_relaxed);
  pass.allocs = util::alloc_count() - allocs0;
  pass.wall_seconds = std::chrono::duration<double>(Clock::now() - t0).count();

  shared.stop.store(true, std::memory_order_relaxed);
  while (shared.inflight.load(std::memory_order_acquire) > 0)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));

  pass.completed = c1 - c0;
  pass.rejected = shared.rejected.load(std::memory_order_relaxed);
  pass.errors += shared.errors.load(std::memory_order_relaxed);
  pass.throughput = pass.wall_seconds > 0.0
                        ? static_cast<double>(pass.completed) / pass.wall_seconds
                        : 0.0;
  pass.stats = server.stats();
  server.shutdown();
  return pass;
}

void print_pass(const PassResult& p) {
  const serve::ServerStats& st = p.stats;
  std::cout << p.name << ":\n"
            << "  transforms/sec     " << static_cast<std::uint64_t>(p.throughput)
            << "  (" << p.completed << " in " << p.wall_seconds << " s)\n"
            << "  latency ns         p50=" << static_cast<std::uint64_t>(st.latency.p50_ns)
            << " p99=" << static_cast<std::uint64_t>(st.latency.p99_ns)
            << " mean=" << static_cast<std::uint64_t>(st.latency.mean_ns)
            << " max=" << st.latency.max_ns << "\n"
            << "  coalescing factor  " << st.coalescing_factor << "  ("
            << st.completed << " transforms / " << st.batches
            << " coalesced groups)\n"
            << "  queue depth        peak=" << p.queue_depth_max << "\n"
            << "  scheduler          phases=" << st.phases
            << " codelets=" << st.codelets << " rounds=" << st.rounds
            << " phases/round="
            << (st.rounds > 0 ? static_cast<double>(st.phases) /
                                    static_cast<double>(st.rounds)
                              : 0.0)
            << "\n"
            << "  allocs             " << p.allocs
            << " (every thread, measured window)\n"
            << "  rejected           " << p.rejected << "  errors " << p.errors << "\n"
            << "  plan cache         hits=" << st.executor.cache.hits
            << " misses=" << st.executor.cache.misses
            << " evictions=" << st.executor.cache.evictions
            << " entries=" << st.executor.cache.entries << "\n"
            << "  arena              leases=" << st.arena.leases
            << " rejected=" << st.arena.rejected
            << " slabs=" << st.arena.slab_count << "x" << st.arena.slab_bytes
            << "B\n";
}

void json_row(std::ostream& out, const PassResult& p, bool last) {
  const double per_item_ns =
      p.completed > 0 ? p.wall_seconds * 1e9 / static_cast<double>(p.completed) : 0.0;
  out << "    {\n"
      << "      \"name\": \"" << p.name << "\",\n"
      << "      \"run_name\": \"" << p.name << "\",\n"
      << "      \"run_type\": \"iteration\",\n"
      << "      \"repetitions\": 1,\n"
      << "      \"iterations\": " << p.completed << ",\n"
      << "      \"real_time\": " << per_item_ns << ",\n"
      << "      \"cpu_time\": " << per_item_ns << ",\n"
      << "      \"time_unit\": \"ns\",\n"
      << "      \"items_per_second\": " << p.throughput << ",\n"
      << "      \"coalescing_factor\": " << p.stats.coalescing_factor << ",\n"
      << "      \"p50_ns\": " << p.stats.latency.p50_ns << ",\n"
      << "      \"p99_ns\": " << p.stats.latency.p99_ns << ",\n"
      << "      \"allocs\": " << p.allocs << "\n"
      << "    }" << (last ? "\n" : ",\n");
}

std::vector<std::uint64_t> parse_sizes(const std::string& csv) {
  std::vector<std::uint64_t> sizes;
  std::stringstream ss(csv);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (tok.empty()) continue;
    sizes.push_back(std::stoull(tok));
  }
  return sizes;
}

}  // namespace

int main(int argc, char** argv) {
  using c64fft::util::CliParser;

  CliParser cli(
      "Mixed-traffic load generator for the FftServer serving front-end.");
  cli.add_int("clients", 8, "simulated clients (tenant/size/precision/lane mix)");
  cli.add_int("tenants", 4, "tenants the clients round-robin over");
  cli.add_int("outstanding", 4, "pipelined in-flight requests per client");
  cli.add_string("sizes", "256,512",
                 "comma-separated transform lengths (any length >= 2: pow2 "
                 "runs the classic plans, 7-smooth composites mixed-radix, "
                 "primes Bluestein)");
  cli.add_string("precision", "mixed", "mixed, f32, or f64");
  cli.add_int("warmup-ms", 100, "unmeasured warmup before the window");
  cli.add_int("duration-ms", 400, "measured wall-clock duration per pass");
  cli.add_int("window-us", 200, "coalescing window of the coalesced pass");
  cli.add_int("max-coalesce", 0,
              "batch bound of the coalesced pass (0 = clients x outstanding)");
  cli.add_int("queue-capacity", 256, "server slot-pool size");
  cli.add_int("workers", 1, "executor worker-team size");
  cli.add_int("seed", 42, "signal/shape seed");
  cli.add_string("mode", "compare", "compare, coalesced, or uncoalesced");
  cli.add_string("json", "", "write google-benchmark JSON (LG_* rows) here");
  cli.add_double("assert-min-throughput", 0.0,
                 "fail (exit 1) unless every pass reaches this transforms/sec");
  cli.add_double("assert-min-coalesce", 0.0,
                 "fail unless the coalesced pass's coalescing factor "
                 "reaches this");
  cli.add_flag("assert-zero-alloc",
               "fail if any thread allocated inside the measured window "
               "(steady-state zero-allocation contract)");

  try {
    if (!cli.parse(argc, argv)) return 0;
  } catch (const std::exception& e) {
    std::cerr << "fft_loadgen: " << e.what() << "\n" << cli.help();
    return 2;
  }

  LoadConfig cfg;
  cfg.clients = static_cast<unsigned>(std::max<std::int64_t>(1, cli.get_int("clients")));
  cfg.tenants = static_cast<unsigned>(
      std::clamp<std::int64_t>(cli.get_int("tenants"), 1, cfg.clients));
  cfg.outstanding = static_cast<unsigned>(
      std::clamp<std::int64_t>(cli.get_int("outstanding"), 1, 64));
  cfg.sizes = parse_sizes(cli.get_string("sizes"));
  cfg.warmup_ms = static_cast<unsigned>(std::max<std::int64_t>(0, cli.get_int("warmup-ms")));
  cfg.duration_ms = static_cast<unsigned>(std::max<std::int64_t>(1, cli.get_int("duration-ms")));
  const std::int64_t workers = cli.get_int("workers");
  if (workers < 1 || workers > c64fft::codelet::Team::kMaxWorkers) {
    std::cerr << "fft_loadgen: --workers must be in [1, "
              << c64fft::codelet::Team::kMaxWorkers << "]\n";
    return 2;
  }
  cfg.workers = static_cast<unsigned>(workers);
  cfg.queue_capacity = static_cast<std::size_t>(std::max<std::int64_t>(8, cli.get_int("queue-capacity")));
  cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  const std::string precision = cli.get_string("precision");
  if (precision == "mixed") {
    cfg.mixed_precision = true;
  } else if (precision == "f32" || precision == "f64") {
    cfg.mixed_precision = false;
    cfg.fixed_precision =
        precision == "f32" ? c64fft::fft::Precision::kF32 : c64fft::fft::Precision::kF64;
  } else {
    std::cerr << "fft_loadgen: --precision must be mixed, f32, or f64\n";
    return 2;
  }
  if (cfg.sizes.empty()) {
    std::cerr << "fft_loadgen: --sizes must name at least one length\n";
    return 2;
  }
  // Every length the executor accepts is servable — composite sizes run
  // the mixed-radix plan and primes Bluestein — and the server admits
  // through the same rule.
  for (const std::uint64_t n : cfg.sizes) {
    if (!fft::fft_size_supported(n)) {
      std::cerr << "fft_loadgen: size " << n
                << " is not a supported length (fft::validate_fft_shape)\n";
      return 2;
    }
  }
  if (std::size_t{cfg.clients} * cfg.outstanding > cfg.queue_capacity) {
    std::cerr << "fft_loadgen: clients x outstanding ("
              << cfg.clients * cfg.outstanding << ") exceeds --queue-capacity ("
              << cfg.queue_capacity << ")\n";
    return 2;
  }
  const std::string mode = cli.get_string("mode");
  if (mode != "compare" && mode != "coalesced" && mode != "uncoalesced") {
    std::cerr << "fft_loadgen: --mode must be compare, coalesced, or uncoalesced\n";
    return 2;
  }
  const auto window_us = static_cast<std::uint32_t>(
      std::max<std::int64_t>(0, cli.get_int("window-us")));
  auto max_coalesce = static_cast<std::uint32_t>(
      std::max<std::int64_t>(0, cli.get_int("max-coalesce")));
  if (max_coalesce == 0) max_coalesce = cfg.clients * cfg.outstanding;

  std::vector<PassResult> passes;
  try {
    if (mode != "uncoalesced")
      passes.push_back(run_pass("LG_ServeCoalesced", cfg, window_us, max_coalesce));
    if (mode != "coalesced")
      passes.push_back(run_pass("LG_ServeUncoalesced", cfg, 0, 1));
  } catch (const std::exception& e) {
    std::cerr << "fft_loadgen: " << e.what() << "\n";
    return 2;
  }

  for (const PassResult& p : passes) print_pass(p);
  if (passes.size() == 2 && passes[1].throughput > 0.0)
    std::cout << "coalesced speedup    "
              << passes[0].throughput / passes[1].throughput
              << "x over one-request-per-phase baseline\n";

  const std::string json_path = cli.get_string("json");
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::cerr << "fft_loadgen: cannot write " << json_path << "\n";
      return 2;
    }
    out << "{\n  \"context\": {\n"
        << "    \"executable\": \"fft_loadgen\",\n"
        << "    \"clients\": " << cfg.clients << ",\n"
        << "    \"tenants\": " << cfg.tenants << ",\n"
        << "    \"outstanding\": " << cfg.outstanding << ",\n"
        << "    \"duration_ms\": " << cfg.duration_ms << "\n"
        << "  },\n  \"benchmarks\": [\n";
    for (std::size_t i = 0; i < passes.size(); ++i)
      json_row(out, passes[i], i + 1 == passes.size());
    out << "  ]\n}\n";
  }

  bool failed = false;
  const double min_tput = cli.get_double("assert-min-throughput");
  const double min_coalesce = cli.get_double("assert-min-coalesce");
  for (const PassResult& p : passes) {
    if (p.errors > 0) {
      std::cerr << "fft_loadgen: " << p.name << ": " << p.errors
                << " request(s) completed with errors\n";
      failed = true;
    }
    if (min_tput > 0.0 && p.throughput < min_tput) {
      std::cerr << "fft_loadgen: " << p.name << ": throughput " << p.throughput
                << " < required " << min_tput << "\n";
      failed = true;
    }
    if (min_coalesce > 0.0 && p.name == "LG_ServeCoalesced" &&
        p.stats.coalescing_factor < min_coalesce) {
      std::cerr << "fft_loadgen: coalescing factor " << p.stats.coalescing_factor
                << " < required " << min_coalesce << "\n";
      failed = true;
    }
    if (cli.flag("assert-zero-alloc") && p.allocs > 0) {
      std::cerr << "fft_loadgen: " << p.name << ": " << p.allocs
                << " steady-state allocation(s)\n";
      failed = true;
    }
  }
  return failed ? 1 : 0;
}
