#include "serve/server.hpp"

#include <algorithm>
#include <exception>

namespace c64fft::serve {

namespace {

/// Plan-cache capacity of the server's executor.
constexpr std::size_t kExecutorCacheCapacity = 32;

/// rejects_ array index for a non-accepted status.
std::size_t reject_index(SubmitStatus s) noexcept {
  return static_cast<std::size_t>(s) - 1;
}

}  // namespace

const char* to_string(SubmitStatus s) noexcept {
  switch (s) {
    case SubmitStatus::kAccepted: return "accepted";
    case SubmitStatus::kQueueFull: return "queue-full";
    case SubmitStatus::kShuttingDown: return "shutting-down";
    case SubmitStatus::kInvalidSize: return "invalid-size";
    case SubmitStatus::kUnknownTenant: return "unknown-tenant";
    case SubmitStatus::kPlanQuotaExceeded: return "plan-quota-exceeded";
  }
  return "?";
}

// ---- Ticket ----

Ticket& Ticket::operator=(Ticket&& other) noexcept {
  if (this != &other) {
    if (server_ != nullptr) server_->ticket_wait(slot_);
    server_ = other.server_;
    slot_ = other.slot_;
    other.server_ = nullptr;
  }
  return *this;
}

Ticket::~Ticket() {
  if (server_ != nullptr) server_->ticket_wait(slot_);
}

Completion Ticket::wait() {
  FftServer* s = server_;
  server_ = nullptr;
  return s->ticket_wait(slot_);
}

// ---- FftServer ----

FftServer::FftServer(const ServerOptions& opts)
    : opts_(opts),
      arena_(opts.arena),
      exec_(fft::ExecutorOptions{opts.workers, kExecutorCacheCapacity}) {
  opts_.queue_capacity = std::max<std::size_t>(1, opts_.queue_capacity);
  opts_.max_coalesce = std::max<std::uint32_t>(1, opts_.max_coalesce);

  slots_ = std::make_unique<Slot[]>(opts_.queue_capacity);
  free_.reserve(opts_.queue_capacity);
  for (std::size_t i = opts_.queue_capacity; i-- > 0;)
    free_.push_back(static_cast<std::uint32_t>(i));
  // A ring entry is a slot taken from the pool, so a ring never fills
  // before the pool empties.
  for (Ring& ring : lanes_) ring.buf.resize(opts_.queue_capacity);

  batch_.resize(opts_.max_coalesce);
  grouped_.resize(opts_.max_coalesce);
  round_.reserve(opts_.max_coalesce);
  groups_.reserve(opts_.max_coalesce);
  spans64_.reserve(opts_.max_coalesce);
  spans32_.reserve(opts_.max_coalesce);

  exec_.set_phase_hook([this](const codelet::PhaseStats& ps) {
    phases_.fetch_add(1, std::memory_order_relaxed);
    codelets_.fetch_add(ps.executed, std::memory_order_relaxed);
  });

  dispatcher_ = std::thread(&FftServer::dispatch_loop, this);
}

FftServer::~FftServer() { shutdown(); }

TenantId FftServer::add_tenant(const TenantQuota& quota) {
  std::lock_guard lock(admit_mutex_);
  const TenantId id = static_cast<TenantId>(tenants_.size());
  tenants_.push_back(TenantState{quota, {}});
  tenants_.back().shapes.reserve(quota.max_plan_shapes);
  arena_.set_tenant_quota(id, quota.max_arena_bytes);
  return id;
}

SubmitResult FftServer::submit(TenantId tenant, std::span<fft::cplx> data,
                               Direction dir, Lane lane, CompletionFn cb,
                               void* ctx) {
  return submit_impl(tenant, data.data(), data.size(), fft::Precision::kF64,
                     dir, lane, cb, ctx);
}

SubmitResult FftServer::submit(TenantId tenant, std::span<fft::cplx32> data,
                               Direction dir, Lane lane, CompletionFn cb,
                               void* ctx) {
  return submit_impl(tenant, data.data(), data.size(), fft::Precision::kF32,
                     dir, lane, cb, ctx);
}

SubmitResult FftServer::submit_impl(TenantId tenant, void* data,
                                    std::uint64_t n, fft::Precision precision,
                                    Direction dir, Lane lane, CompletionFn cb,
                                    void* ctx) {
  const auto t_submit = std::chrono::steady_clock::now();
  std::uint32_t slot_idx;
  {
    std::lock_guard lock(admit_mutex_);
    const auto reject = [this](SubmitStatus s) {
      ++rejects_[reject_index(s)];
      return SubmitResult{s, {}};
    };
    if (!accepting_.load(std::memory_order_relaxed))
      return reject(SubmitStatus::kShuttingDown);
    // The executor's own shape rule, so a length no route runs is
    // rejected here rather than failing its batch after dispatch.
    if (data == nullptr || !fft::fft_size_supported(n))
      return reject(SubmitStatus::kInvalidSize);
    if (tenant >= tenants_.size()) return reject(SubmitStatus::kUnknownTenant);

    // Plan-shape quota: first submission of a new (n, precision) pair
    // charges one of the tenant's max_plan_shapes entries, permanently.
    // The scan is linear over a handful of shapes; the push_back lands in
    // capacity reserved at add_tenant, so admission never allocates.
    TenantState& ts = tenants_[tenant];
    const std::pair<std::uint64_t, fft::Precision> shape{n, precision};
    if (std::find(ts.shapes.begin(), ts.shapes.end(), shape) ==
        ts.shapes.end()) {
      if (ts.shapes.size() >= ts.quota.max_plan_shapes)
        return reject(SubmitStatus::kPlanQuotaExceeded);
      ts.shapes.push_back(shape);
    }

    if (free_.empty()) return reject(SubmitStatus::kQueueFull);

    slot_idx = free_.back();
    free_.pop_back();
    Slot& s = slots_[slot_idx];
    s.data = data;
    s.n = n;
    s.precision = precision;
    s.dir = dir;
    s.tenant = tenant;
    s.cb = cb;
    s.ctx = ctx;
    s.t_submit = t_submit;
    s.done = false;  // slot is exclusively ours until the ring push below
    lanes_[static_cast<std::size_t>(lane)].push(slot_idx);
    ++depth_;
    ++submitted_;
  }
  dispatch_cv_.notify_all();
  if (cb != nullptr) return {SubmitStatus::kAccepted, {}};
  return {SubmitStatus::kAccepted, Ticket(this, slot_idx)};
}

void FftServer::dispatch_loop() {
  // Allocation accounting baseline for this thread (see
  // ServerOptions::alloc_probe); everything the probe counts between
  // samples is split into executor-internal vs serving-layer below.
  std::uint64_t probe_prev =
      opts_.alloc_probe != nullptr ? opts_.alloc_probe() : 0;
  std::unique_lock lock(admit_mutex_);
  for (;;) {
    dispatch_cv_.wait(lock, [this] {
      return depth_ > 0 || !accepting_.load(std::memory_order_relaxed);
    });
    if (depth_ == 0) {
      if (!accepting_.load(std::memory_order_relaxed)) return;
      continue;
    }

    // Coalescing window: hold the batch open briefly so concurrent
    // clients' requests land in ONE executor call. Closes early the
    // moment a full batch is available (or shutdown begins) — the window
    // bounds added latency, it does not impose it.
    if (opts_.coalesce_window_us > 0 && depth_ < opts_.max_coalesce &&
        accepting_.load(std::memory_order_relaxed)) {
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::microseconds(opts_.coalesce_window_us);
      dispatch_cv_.wait_until(lock, deadline, [this] {
        return depth_ >= opts_.max_coalesce ||
               !accepting_.load(std::memory_order_relaxed);
      });
    }

    // Drain in strict lane-priority order into the preallocated batch.
    std::size_t k = 0;
    for (Ring& ring : lanes_) {
      while (k < opts_.max_coalesce && !ring.empty()) {
        batch_[k++] = ring.pop();
        --depth_;
      }
      if (k == opts_.max_coalesce) break;
    }

    lock.unlock();
    const std::uint64_t exec_allocs = process_batch(k);
    if (opts_.alloc_probe != nullptr) {
      // Everything this thread allocated since the last sample, minus
      // what happened inside executor calls, is the serving layer's own
      // (drain, group, complete, client callbacks) — the count the
      // steady-state zero-allocation contract gates on.
      const std::uint64_t now = opts_.alloc_probe();
      dispatch_allocs_.fetch_add(now - probe_prev - exec_allocs,
                                 std::memory_order_relaxed);
      executor_allocs_.fetch_add(exec_allocs, std::memory_order_relaxed);
      probe_prev = now;
    }
    lock.lock();
  }
}

std::uint64_t FftServer::process_batch(std::size_t count) {
  // Group the round by exact (n, precision, direction), in drain order,
  // the groups with a serial body first and the tile-pipelined ones
  // (fft::tile_pipelined) after them. Each group's spans sit contiguously
  // in spans64_/spans32_ and its slots in round_; none of them outgrows
  // the max_coalesce capacity reserved at construction, so the views
  // taken here stay valid.
  std::fill_n(grouped_.begin(), count, std::uint8_t{0});
  groups_.clear();
  round_.clear();
  spans64_.clear();
  spans32_.clear();
  std::size_t serial_groups = 0;
  for (const bool pipelined : {false, true}) {
    for (std::size_t i = 0; i < count; ++i) {
      if (grouped_[i] != 0) continue;
      const Slot& lead = slots_[batch_[i]];
      if (fft::tile_pipelined(lead.n) != pipelined) continue;
      const std::size_t first64 = spans64_.size();
      const std::size_t first32 = spans32_.size();
      for (std::size_t j = i; j < count; ++j) {
        if (grouped_[j] != 0) continue;
        Slot& s = slots_[batch_[j]];
        if (s.n != lead.n || s.precision != lead.precision || s.dir != lead.dir)
          continue;
        grouped_[j] = 1;
        round_.push_back(batch_[j]);
        if (s.precision == fft::Precision::kF64)
          spans64_.emplace_back(static_cast<fft::cplx*>(s.data), s.n);
        else
          spans32_.emplace_back(static_cast<fft::cplx32*>(s.data), s.n);
      }
      const fft::TwiddleDirection dir = lead.dir == Direction::kForward
                                            ? fft::TwiddleDirection::kForward
                                            : fft::TwiddleDirection::kInverse;
      if (lead.precision == fft::Precision::kF64)
        groups_.emplace_back(std::span<const std::span<fft::cplx>>(
                                 spans64_.data() + first64,
                                 spans64_.size() - first64),
                             dir);
      else
        groups_.emplace_back(std::span<const std::span<fft::cplx32>>(
                                 spans32_.data() + first32,
                                 spans32_.size() - first32),
                             dir);
    }
    if (!pipelined) serial_groups = groups_.size();
  }
  batches_.fetch_add(groups_.size(), std::memory_order_relaxed);
  rounds_.fetch_add(1, std::memory_order_relaxed);

  // One executor call runs `call` (one phase for all its serial groups),
  // then its requests complete; returns the call's own allocations.
  std::size_t k = 0;
  const auto run = [&](std::span<fft::BatchGroup> call) {
    bool call_failed = false;
    const std::uint64_t probe0 =
        opts_.alloc_probe != nullptr ? opts_.alloc_probe() : 0;
    try {
      exec_.run_groups(call);
    } catch (const std::exception&) {
      call_failed = true;
    }
    const std::uint64_t allocs =
        opts_.alloc_probe != nullptr ? opts_.alloc_probe() - probe0 : 0;
    for (const fft::BatchGroup& g : call) {
      const RequestStatus status = call_failed || g.error()
                                       ? RequestStatus::kError
                                       : RequestStatus::kOk;
      for (const std::size_t end = k + g.size(); k < end; ++k)
        complete(round_[k], status);
    }
    return allocs;
  };
  // A round is one call, or two when it mixes serial and pipelined
  // groups: the serial groups' requests then complete before the
  // pipelined groups run, instead of waiting out the pipeline.
  const std::span<fft::BatchGroup> groups(groups_);
  if (serial_groups == 0 || serial_groups == groups.size()) return run(groups);
  const std::uint64_t allocs = run(groups.first(serial_groups));
  return allocs + run(groups.subspan(serial_groups));
}

void FftServer::complete(std::uint32_t slot_idx, RequestStatus status) {
  Slot& s = slots_[slot_idx];
  const auto now = std::chrono::steady_clock::now();
  const std::uint64_t latency_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(now - s.t_submit)
          .count());
  latency_.record(latency_ns);
  completed_.fetch_add(1, std::memory_order_relaxed);
  const Completion result{status, latency_ns};
  if (s.cb != nullptr) {
    // Callback mode: deliver, then recycle here — the slot fields must
    // not be read after the callback (it may re-submit into this slot).
    const CompletionFn cb = s.cb;
    void* ctx = s.ctx;
    recycle(slot_idx);
    cb(ctx, result);
  } else {
    {
      std::lock_guard g(s.m);
      s.result = result;
      s.done = true;
    }
    s.cv.notify_all();
  }
}

void FftServer::recycle(std::uint32_t slot_idx) {
  std::lock_guard lock(admit_mutex_);
  free_.push_back(slot_idx);
}

Completion FftServer::ticket_wait(std::uint32_t slot_idx) {
  Slot& s = slots_[slot_idx];
  Completion result;
  {
    std::unique_lock g(s.m);
    s.cv.wait(g, [&s] { return s.done; });
    result = s.result;
  }
  recycle(slot_idx);
  return result;
}

void FftServer::shutdown() {
  std::lock_guard shutdown_guard(shutdown_mutex_);
  if (!dispatcher_.joinable()) return;  // already shut down
  {
    std::lock_guard lock(admit_mutex_);
    accepting_.store(false, std::memory_order_release);
  }
  dispatch_cv_.notify_all();
  dispatcher_.join();
  exec_.shutdown();
}

ServerStats FftServer::stats() const {
  ServerStats st;
  {
    std::lock_guard lock(admit_mutex_);
    st.submitted = submitted_;
    st.queue_depth = depth_;
    for (std::size_t i = 0; i < kLaneCount; ++i)
      st.lane_depth[i] = lanes_[i].count;
    st.rejected_queue_full = rejects_[reject_index(SubmitStatus::kQueueFull)];
    st.rejected_shutdown = rejects_[reject_index(SubmitStatus::kShuttingDown)];
    st.rejected_invalid = rejects_[reject_index(SubmitStatus::kInvalidSize)];
    st.rejected_tenant = rejects_[reject_index(SubmitStatus::kUnknownTenant)];
    st.rejected_plan_quota =
        rejects_[reject_index(SubmitStatus::kPlanQuotaExceeded)];
  }
  st.completed = completed_.load(std::memory_order_relaxed);
  st.batches = batches_.load(std::memory_order_relaxed);
  st.rounds = rounds_.load(std::memory_order_relaxed);
  st.dispatch_allocs = dispatch_allocs_.load(std::memory_order_relaxed);
  st.executor_allocs = executor_allocs_.load(std::memory_order_relaxed);
  st.coalescing_factor =
      st.batches > 0
          ? static_cast<double>(st.completed) / static_cast<double>(st.batches)
          : 0.0;
  st.phases = phases_.load(std::memory_order_relaxed);
  st.codelets = codelets_.load(std::memory_order_relaxed);
  st.latency = latency_.snapshot();
  st.arena = arena_.stats();
  st.executor = exec_.stats();
  return st;
}

}  // namespace c64fft::serve
