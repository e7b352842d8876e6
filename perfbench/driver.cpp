// Workload driver of the repository benchmark. perfbench/run.py builds it
// and turns the JSON line it prints into the benchmark result.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--process-index I]
//
// Both workloads are closed loops: a request is sent again only after it
// completed, so a slower library receives less load.
//   serve_small  the serving traffic tools/run_loadgen_check.cmake gates:
//                8 clients over 4 tenants and 3 priority lanes, 8 requests
//                in flight each; client c sends N = {64, 96, 101, 128}[c % 4]
//                (the pow2, mixed-radix and Bluestein routes) in f64 or f32;
//                each request is resubmitted from its completion callback
//                as tools/fft_loadgen does. FftServer runs a two-worker
//                team, so batches execute as runtime phases, and
//                max_coalesce equals the 64 requests in flight, so each
//                dispatch round closes on a full batch and never waits out
//                the 200 us window. fft_loadgen flips a request's direction
//                on every resubmission, so which directions share a round
//                depends on how start-up split the first batches; here half
//                of each client's requests are always forward and half
//                always inverse, so every round is 8 batches of 8.
//   large_pow2   one caller runs fft::forward on 2^20-point f64 signals
//                (16 MiB, larger than a core's L2) with a one-worker team:
//                the large-N route, bound by memory traffic. The process is
//                pinned to allowed core I mod count (I from --process-index),
//                so run.py's processes sample every core alike.
//
// Each input is a seeded sum of tones on exact bins, so its transform has
// a closed form (a sparse spectrum, or a dense tone sum for the inverse);
// every output is checked against it.
//
// Set-up is timed from the first library call (constructing the server and
// leasing its buffers, or touching the process-wide executor) to the end
// of the first request of every shape the workload sends, which builds its
// plans and worker team.
//
// --trace 1 adds per-layer figures: a phase hook on the executor (runtime
// phases, codelets, time inside phases), a process-wide allocation
// counter, the server's executor-call count, the plan cache, and a memcpy
// reference for the executor's time.

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <memory>
#include <new>
#include <numbers>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "fft/api.hpp"
#include "fft/executor.hpp"
#include "serve/server.hpp"

namespace {

// ---- Process-wide allocation counter (every thread; traced runs only) ----

std::atomic<bool> g_count_allocs{false};
std::atomic<std::uint64_t> g_allocs{0};
// Set while the driver itself allocates (growing its latency log, reading
// stats), so the count holds only the library's allocations.
thread_local bool t_uncounted = false;

void* counted_alloc(std::size_t size, std::size_t align) {
  if (!t_uncounted && g_count_allocs.load(std::memory_order_relaxed))
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size, 0); }
void* operator new[](std::size_t size) { return counted_alloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace c64fft;
using Clock = std::chrono::steady_clock;

// serve_small traffic, as pinned by tools/run_loadgen_check.cmake.
constexpr unsigned kClients = 8;
constexpr unsigned kTenants = 4;
constexpr unsigned kOutstanding = 8;
constexpr unsigned kServeWorkers = 2;
constexpr std::uint32_t kWindowUs = 200;  // fft_loadgen's default window
constexpr std::uint64_t kServeSizes[] = {64, 96, 101, 128};
constexpr unsigned kTones = 3;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

Clock::duration seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

double uniform(std::mt19937_64& rng) {
  return static_cast<double>(rng() >> 11) * 0x1.0p-53;
}

std::size_t bytes_of(std::uint64_t n, bool f32) {
  return n * (f32 ? sizeof(fft::cplx32) : sizeof(fft::cplx));
}

// ---- Inputs with closed-form transforms ----

struct Shape {
  std::uint64_t n = 0;
  bool f32 = false;
  bool inverse = false;
};

struct Request {
  std::vector<fft::cplx> input;
  std::vector<fft::cplx32> input32;
  std::vector<fft::cplx> expected;
  double tolerance = 0.0;  // on max |output - expected|
};

// x[i] = sum_j a_j exp(+2 pi i k_j i / n) has forward transform n * a_j on
// bin k_j and zero elsewhere; the inverse (1/n scaling) maps the sparse
// spectrum a back to x / n.
Request make_request(const Shape& shape, std::mt19937_64& rng) {
  const std::uint64_t n = shape.n;
  std::vector<fft::cplx> dense(n), sparse(n);
  double amplitude = 0.0;
  for (unsigned j = 0; j < kTones; ++j) {
    const std::uint64_t k = rng() % n;
    const fft::cplx a(2.0 * uniform(rng) - 1.0, 2.0 * uniform(rng) - 1.0);
    amplitude += std::abs(a);
    sparse[k] += a;
    for (std::uint64_t i = 0; i < n; ++i) {
      const double phase = 2.0 * std::numbers::pi *
                           static_cast<double>((k * i) % n) /
                           static_cast<double>(n);
      dense[i] += a * fft::cplx(std::cos(phase), std::sin(phase));
    }
  }
  const double scale = static_cast<double>(n);
  Request r;
  if (shape.inverse) {
    r.input = std::move(sparse);
    r.expected = std::move(dense);
    for (auto& v : r.expected) v /= scale;
  } else {
    r.input = std::move(dense);
    r.expected = std::move(sparse);
    for (auto& v : r.expected) v *= scale;
  }
  const double peak = amplitude * (shape.inverse ? 1.0 / scale : scale);
  r.tolerance = peak * (shape.f32 ? 1e-3 : 1e-9);
  if (shape.f32) r.input32.assign(r.input.begin(), r.input.end());
  return r;
}

template <typename T>
void load_input(const Request& r, std::span<std::complex<T>> data) {
  if constexpr (std::is_same_v<T, float>)
    std::copy(r.input32.begin(), r.input32.end(), data.begin());
  else
    std::copy(r.input.begin(), r.input.end(), data.begin());
}

template <typename T>
bool matches(std::span<const std::complex<T>> out, const Request& r) {
  const double tol2 = r.tolerance * r.tolerance;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double dr = static_cast<double>(out[i].real()) - r.expected[i].real();
    const double di = static_cast<double>(out[i].imag()) - r.expected[i].imag();
    if (!(dr * dr + di * di <= tol2)) return false;
  }
  return true;
}

struct Workload {
  std::vector<Shape> shapes;
  std::size_t per_shape = 1;  // distinct inputs generated per shape
  bool served = false;        // through FftServer, else fft::forward
};

// Shape index of request slot `slot` of client c in serve_small: even
// slots send forward, odd slots inverse transforms.
std::size_t serve_shape(unsigned client, unsigned slot) {
  return 2 * (client % 4) + slot % 2;
}

Workload workload_by_name(const std::string& name) {
  Workload w;
  if (name == "serve_small") {
    // Client c sends N = kServeSizes[c % 4], f32 when (c / 2) is odd; both
    // depend on c % 4 only, so four (N, precision) pairs, both directions.
    for (unsigned c = 0; c < 4; ++c)
      for (const bool inverse : {false, true})
        w.shapes.push_back({kServeSizes[c], (c / 2) % 2 == 1, inverse});
    w.per_shape = 4;
    w.served = true;
  } else if (name == "large_pow2") {
    w.shapes = {{std::uint64_t{1} << 20, false, false}};
    w.per_shape = 2;
  } else {
    throw std::invalid_argument("unknown workload: " + name);
  }
  return w;
}

using Pool = std::vector<std::vector<Request>>;  // per shape

// ---- What one run measured ----

struct PhaseCounters {
  std::atomic<std::uint64_t> phases{0};
  std::atomic<std::uint64_t> codelets{0};
  std::atomic<std::uint64_t> nanos{0};
};

void install_phase_hook(fft::FftExecutor& exec, PhaseCounters& pc) {
  exec.set_phase_hook([&pc](const codelet::PhaseStats& ps) {
    pc.phases.fetch_add(1, std::memory_order_relaxed);
    pc.codelets.fetch_add(ps.executed, std::memory_order_relaxed);
    pc.nanos.fetch_add(ps.nanos, std::memory_order_relaxed);
  });
}

struct Counts {
  std::uint64_t phases = 0, codelets = 0, phase_nanos = 0, allocs = 0;
  std::uint64_t transforms = 0;      // completed
  std::uint64_t executor_calls = 0;  // batch calls the server issued
};

Counts counts(const PhaseCounters& pc) {
  Counts c;
  c.phases = pc.phases.load();
  c.codelets = pc.codelets.load();
  c.phase_nanos = pc.nanos.load();
  c.allocs = g_allocs.load();
  return c;
}

Counts operator-(const Counts& a, const Counts& b) {
  return {a.phases - b.phases,         a.codelets - b.codelets,
          a.phase_nanos - b.phase_nanos, a.allocs - b.allocs,
          a.transforms - b.transforms, a.executor_calls - b.executor_calls};
}

struct Measurement {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  double setup_s = 0.0;
  double construct_s = 0.0;
  double first_calls_s = 0.0;
  std::vector<double> latency_s;  // requests completed in the window
  // Measured window: counter deltas, and the time the library spent on
  // it (the window's length when requests overlap, else the summed call
  // time).
  Counts window;
  double busy_s = 0.0;
  double bytes_per_transform = 0.0;
  std::uint64_t plan_cache_misses = 0;
};

void log_latency(std::vector<double>& log, double s) {
  if (log.size() == log.capacity()) {
    t_uncounted = true;
    log.reserve(2 * log.capacity() + 4096);
    t_uncounted = false;
  }
  log.push_back(s);
}

// ---- serve_small: callback-resubmitted flights through FftServer ----

struct Traffic;

// One request slot of a client: its own arena buffer, resubmitted from
// its completion callback.
struct Flight {
  Traffic* traffic = nullptr;
  serve::TenantId tenant = 0;
  serve::Lane lane = serve::Lane::kNormal;
  serve::BufferLease lease;
  std::size_t shape = 0;
  const Request* request = nullptr;  // the one in flight
  std::mt19937_64 rng;
};

struct Traffic {
  serve::FftServer* server = nullptr;
  const Workload* workload = nullptr;
  const Pool* pool = nullptr;
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};
  std::atomic<std::uint64_t> inflight{0};
  std::atomic<bool> measuring{false};
  std::atomic<bool> stop{false};
  std::vector<double> latency_s;  // appended on the dispatcher thread only
};

void on_complete(void* ctx, const serve::Completion& done);

// Loads a fresh input of the flight's shape and submits it; with a null
// callback the caller waits on the returned ticket.
serve::SubmitResult submit(Flight& f, serve::CompletionFn cb) {
  Traffic& t = *f.traffic;
  const Shape& shape = t.workload->shapes[f.shape];
  const auto& requests = (*t.pool)[f.shape];
  f.request = &requests[f.rng() % requests.size()];
  const serve::Direction dir =
      shape.inverse ? serve::Direction::kInverse : serve::Direction::kForward;
  if (shape.f32) {
    load_input<float>(*f.request, f.lease.as<fft::cplx32>());
    return t.server->submit(f.tenant, f.lease.as<fft::cplx32>(), dir, f.lane,
                            cb, cb != nullptr ? &f : nullptr);
  }
  load_input<double>(*f.request, f.lease.as<fft::cplx>());
  return t.server->submit(f.tenant, f.lease.as<fft::cplx>(), dir, f.lane, cb,
                          cb != nullptr ? &f : nullptr);
}

void count_rejected(Traffic& t, serve::SubmitStatus status) {
  std::fprintf(stderr, "submit rejected: %s\n", serve::to_string(status));
  t.attempted.fetch_add(1, std::memory_order_relaxed);
  t.failed.fetch_add(1, std::memory_order_relaxed);
}

void send(Flight& f) {
  const serve::SubmitResult r = submit(f, &on_complete);
  if (r.status != serve::SubmitStatus::kAccepted) {
    count_rejected(*f.traffic, r.status);
    f.traffic->inflight.fetch_sub(1, std::memory_order_release);
  }
}

// Checks the flight's finished request.
bool completed_ok(const Flight& f, serve::RequestStatus status) {
  if (status != serve::RequestStatus::kOk) return false;
  if (f.traffic->workload->shapes[f.shape].f32)
    return matches<float>(f.lease.as<fft::cplx32>(), *f.request);
  return matches<double>(f.lease.as<fft::cplx>(), *f.request);
}

// Runs on the server's dispatcher thread.
void on_complete(void* ctx, const serve::Completion& done) {
  Flight& f = *static_cast<Flight*>(ctx);
  Traffic& t = *f.traffic;
  t.attempted.fetch_add(1, std::memory_order_relaxed);
  if (!completed_ok(f, done.status))
    t.failed.fetch_add(1, std::memory_order_relaxed);
  if (t.measuring.load(std::memory_order_relaxed))
    log_latency(t.latency_s, static_cast<double>(done.latency_ns) * 1e-9);
  if (t.stop.load(std::memory_order_relaxed)) {
    t.inflight.fetch_sub(1, std::memory_order_release);
    return;
  }
  send(f);
}

Measurement run_served(const Workload& w, const Pool& pool,
                       std::uint64_t seed, double run_s, double warm_s,
                       bool trace) {
  Measurement m;
  Traffic t;
  t.workload = &w;
  t.pool = &pool;

  serve::ServerOptions so;
  so.coalesce_window_us = kWindowUs;
  so.max_coalesce = kClients * kOutstanding;
  so.workers = kServeWorkers;
  so.arena.slab_bytes = bytes_of(kServeSizes[3], false);
  so.arena.slab_count = std::size_t{kClients} * kOutstanding + 4;
  serve::TenantQuota quota;
  quota.max_arena_bytes =
      so.arena.slab_bytes * ((kClients / kTenants + 1) * kOutstanding);
  quota.max_plan_shapes = w.shapes.size();

  std::unique_ptr<serve::FftServer> server;  // outlives the leases
  std::vector<Flight> flights(std::size_t{kClients} * kOutstanding);
  double bytes = 0.0;
  const auto t_setup = Clock::now();
  server = std::make_unique<serve::FftServer>(so);
  t.server = server.get();
  std::vector<serve::TenantId> tenants;
  for (unsigned i = 0; i < kTenants; ++i)
    tenants.push_back(server->add_tenant(quota));
  for (unsigned c = 0; c < kClients; ++c) {
    for (unsigned o = 0; o < kOutstanding; ++o) {
      Flight& f = flights[std::size_t{c} * kOutstanding + o];
      f.traffic = &t;
      f.tenant = tenants[c % kTenants];
      f.lane = static_cast<serve::Lane>(c % serve::kLaneCount);
      f.shape = serve_shape(c, o);
      f.rng.seed(seed * 1000003u + c * kOutstanding + o);
      const Shape& shape = w.shapes[f.shape];
      auto leased = server->arena().lease(f.tenant, bytes_of(shape.n, shape.f32));
      if (leased.status != serve::LeaseStatus::kOk)
        throw std::runtime_error("arena lease rejected");
      f.lease = std::move(leased.lease);
      bytes += static_cast<double>(bytes_of(shape.n, shape.f32));
    }
  }
  m.bytes_per_transform = bytes / static_cast<double>(flights.size());
  const auto t_first = Clock::now();
  {
    // First request of every shape, in flight together: the first two
    // slots (forward and inverse) of clients 0-3.
    std::vector<std::pair<Flight*, serve::Ticket>> first;
    for (unsigned c = 0; c < 4; ++c)
      for (unsigned o = 0; o < 2; ++o) {
        Flight& f = flights[std::size_t{c} * kOutstanding + o];
        serve::SubmitResult r = submit(f, nullptr);
        if (r.status == serve::SubmitStatus::kAccepted)
          first.emplace_back(&f, std::move(r.ticket));
        else
          count_rejected(t, r.status);
      }
    for (auto& [f, ticket] : first) {
      t.attempted.fetch_add(1, std::memory_order_relaxed);
      if (!completed_ok(*f, ticket.wait().status))
        t.failed.fetch_add(1, std::memory_order_relaxed);
    }
  }
  const auto t_ready = Clock::now();
  m.construct_s = seconds_between(t_setup, t_first);
  m.first_calls_s = seconds_between(t_first, t_ready);
  m.setup_s = seconds_between(t_setup, t_ready);

  PhaseCounters pc;
  // Replaces the server's own hook, whose phase counts go unused here.
  if (trace) install_phase_hook(server->executor(), pc);
  const auto snapshot = [&] {
    Counts c = counts(pc);
    t_uncounted = true;
    const serve::ServerStats s = server->stats();
    t_uncounted = false;
    c.transforms = s.completed;
    c.executor_calls = s.batches;
    return c;
  };

  // Each round drains everything queued, so after start-up all 64 flights
  // share every round. From here this thread only keeps time: the
  // dispatcher thread checks and resubmits each request in its completion
  // callback.
  const auto measure_from = Clock::now() + seconds(warm_s);
  const auto measure_to = measure_from + seconds(run_s);
  t.inflight.store(flights.size());
  for (Flight& f : flights) send(f);
  std::this_thread::sleep_until(measure_from);
  g_count_allocs.store(trace);
  const Counts c0 = snapshot();
  const auto w0 = Clock::now();
  t.measuring.store(true);
  std::this_thread::sleep_until(measure_to);
  t.measuring.store(false);
  const auto w1 = Clock::now();
  const Counts c1 = snapshot();
  g_count_allocs.store(false);
  t.stop.store(true);
  while (t.inflight.load(std::memory_order_acquire) != 0)
    std::this_thread::sleep_for(std::chrono::microseconds(100));

  m.window = c1 - c0;
  m.busy_s = seconds_between(w0, w1);
  m.latency_s = std::move(t.latency_s);
  m.plan_cache_misses = server->executor().stats().cache.misses;
  server->shutdown();
  m.attempted = t.attempted.load();
  m.failed = t.failed.load();
  return m;
}

// ---- large_pow2: one caller on fft::forward ----

template <typename T>
bool direct_call(const Shape& shape, const Request& r,
                 std::span<std::complex<T>> data, double& elapsed_s) {
  load_input<T>(r, data);
  fft::HostFftOptions opts;
  opts.workers = 1;  // per-core cost; multi-core scaling is not measured
  bool ok = true;
  const auto t0 = Clock::now();
  try {
    if (shape.inverse)
      fft::inverse(data, opts);
    else
      fft::forward(data, opts);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "request n=%llu failed: %s\n",
                 static_cast<unsigned long long>(shape.n), e.what());
    ok = false;
  }
  elapsed_s = seconds_between(t0, Clock::now());
  return ok && matches<T>(data, r);
}

Measurement run_direct(const Workload& w, const Pool& pool,
                       std::uint64_t seed, double run_s, double warm_s,
                       bool trace) {
  Measurement m;
  std::uint64_t max_n = 0;
  for (const Shape& s : w.shapes) max_n = std::max(max_n, s.n);
  std::vector<fft::cplx> buf(max_n);
  std::vector<fft::cplx32> buf32(max_n);
  std::mt19937_64 rng(seed * 1000003u);
  double bytes = 0.0;
  const auto call = [&](std::size_t s, const Request& r, double& elapsed_s) {
    const Shape& shape = w.shapes[s];
    ++m.attempted;
    const bool ok =
        shape.f32
            ? direct_call<float>(shape, r, {buf32.data(), shape.n}, elapsed_s)
            : direct_call<double>(shape, r, {buf.data(), shape.n}, elapsed_s);
    if (!ok) ++m.failed;
  };

  const auto t_setup = Clock::now();
  fft::FftExecutor& exec = fft::default_executor();
  const auto t_first = Clock::now();
  double elapsed_s = 0.0;
  for (std::size_t s = 0; s < w.shapes.size(); ++s)
    call(s, pool[s][0], elapsed_s);
  const auto t_ready = Clock::now();
  m.construct_s = seconds_between(t_setup, t_first);
  m.first_calls_s = seconds_between(t_first, t_ready);
  m.setup_s = seconds_between(t_setup, t_ready);

  PhaseCounters pc;
  if (trace) install_phase_hook(exec, pc);
  std::uniform_int_distribution<std::size_t> pick_shape(0, w.shapes.size() - 1);
  const auto measure_from = Clock::now() + seconds(warm_s);
  const auto measure_to = measure_from + seconds(run_s);
  Counts c0;
  bool measuring = false;
  for (;;) {
    const auto now = Clock::now();
    if (now >= measure_to) break;
    if (!measuring && now >= measure_from) {
      measuring = true;
      g_count_allocs.store(trace);
      c0 = counts(pc);
    }
    const std::size_t s = pick_shape(rng);
    call(s, pool[s][rng() % pool[s].size()], elapsed_s);
    if (!measuring) continue;
    log_latency(m.latency_s, elapsed_s);
    m.busy_s += elapsed_s;
    bytes += static_cast<double>(bytes_of(w.shapes[s].n, w.shapes[s].f32));
  }
  g_count_allocs.store(false);
  Counts c1 = counts(pc);
  c1.transforms = c1.executor_calls = m.latency_s.size();
  if (measuring) m.window = c1 - c0;
  exec.set_phase_hook({});
  m.bytes_per_transform =
      m.latency_s.empty() ? 0.0 : bytes / static_cast<double>(m.latency_s.size());
  m.plan_cache_misses = exec.stats().cache.misses;
  return m;
}

// ---- Reporting ----

// Nearest-rank quantile.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

// Median seconds one memcpy of `bytes` takes (a read and a write of each
// byte), timed over batches of copies so small sizes stay well above the
// clock's resolution.
double copy_seconds(std::size_t bytes) {
  bytes = std::max<std::size_t>(bytes, 1);
  std::vector<unsigned char> a(bytes, 1), b(bytes, 2);
  const std::size_t reps = std::max<std::size_t>(1, (std::size_t{1} << 20) / bytes);
  std::vector<double> t;
  const auto stop = Clock::now() + std::chrono::milliseconds(200);
  do {
    const auto t0 = Clock::now();
    for (std::size_t r = 0; r < reps; ++r) {
      std::memcpy(b.data(), a.data(), bytes);
      a[r % bytes] = b[(r * 7) % bytes];  // each copy feeds the next
    }
    t.push_back(seconds_between(t0, Clock::now()) / static_cast<double>(reps));
  } while (Clock::now() < stop || t.size() < 5);
  return quantile(std::move(t), 0.5);
}

void pin_to_allowed_core(unsigned index) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[index % cpus.size()], &one);
  sched_setaffinity(0, sizeof one, &one);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  unsigned process_index = 0;
};

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::stoull(value());
    else if (a == "--seconds") o.seconds = std::stod(value());
    else if (a == "--trace") o.trace = value() == "1";
    else if (a == "--process-index") o.process_index = std::stoul(value());
    else throw std::invalid_argument("unknown argument: " + a);
  }
  if (o.workload.empty()) throw std::invalid_argument("--workload is required");
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

void print_metric(bool& first, const char* name, double value) {
  std::printf("%s\"%s\": %.10g", first ? "" : ", ", name, value);
  first = false;
}

int run(const Options& o) {
  const Workload w = workload_by_name(o.workload);
  // A single-threaded workload measures the core it lands on.
  if (!w.served) pin_to_allowed_core(o.process_index);
  std::mt19937_64 rng(o.seed);
  Pool pool(w.shapes.size());
  for (std::size_t k = 0; k < w.per_shape; ++k)
    for (std::size_t s = 0; s < w.shapes.size(); ++s)
      pool[s].push_back(make_request(w.shapes[s], rng));

  const double warm_s = std::min(1.0, 0.1 * o.seconds);
  const Measurement m =
      w.served ? run_served(w, pool, o.seed, o.seconds, warm_s, o.trace)
               : run_direct(w, pool, o.seed, o.seconds, warm_s, o.trace);

  std::printf("{\"attempted\": %llu, \"failed\": %llu, \"measured\": %llu, "
              "\"setup_s\": %.10g, \"construct_ms\": %.10g, "
              "\"plan_build_ms\": %.10g, \"metrics\": {",
              static_cast<unsigned long long>(m.attempted),
              static_cast<unsigned long long>(m.failed),
              static_cast<unsigned long long>(m.latency_s.size()), m.setup_s,
              m.construct_s * 1e3, m.first_calls_s * 1e3);
  bool first = true;
  const Counts& c = m.window;
  if (!m.latency_s.empty() && c.transforms > 0) {
    if (!o.trace) {
      print_metric(first, "latency_p50_us", quantile(m.latency_s, 0.50) * 1e6);
      print_metric(first, "latency_p90_us", quantile(m.latency_s, 0.90) * 1e6);
    } else {
      const double per = 1.0 / static_cast<double>(c.transforms);
      // Executor work runs inside runtime phases; the rest of the time
      // spent per transform is routing and plan lookup, and for
      // serve_small also admission, grouping and completion in the server
      // (plus this driver's output check in the callback).
      const double phase_s = static_cast<double>(c.phase_nanos) * 1e-9 * per;
      print_metric(first, "phase_us", phase_s * 1e6);
      print_metric(first, "outside_phase_us", (m.busy_s * per - phase_s) * 1e6);
      print_metric(first, "phases_per_transform",
                   static_cast<double>(c.phases) * per);
      print_metric(first, "codelets_per_transform",
                   static_cast<double>(c.codelets) * per);
      print_metric(first, "allocs_per_transform",
                   static_cast<double>(c.allocs) * per);
      print_metric(first, "coalesce_factor",
                   c.executor_calls > 0 ? static_cast<double>(c.transforms) /
                                              static_cast<double>(c.executor_calls)
                                        : 0.0);
      print_metric(first, "plan_cache_misses",
                   static_cast<double>(m.plan_cache_misses));
      // Phase time against a memcpy of the same bytes: how many read+write
      // sweeps of its data the executor's work costs (cache-resident for
      // serve_small, main memory for large_pow2).
      const double copy_s = copy_seconds(
          static_cast<std::size_t>(std::llround(m.bytes_per_transform)));
      print_metric(first, "copy_equiv_passes", phase_s / copy_s);
    }
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 2;
  }
}
