#include "codelet/team.hpp"

#include <chrono>
#include <stdexcept>
#include <string>

namespace c64fft::codelet {

namespace {

std::atomic<std::uint64_t> g_teams_created{0};

/// Low half of the claim and bound words: the index, resp. the count.
constexpr std::uint64_t kIndexMask = 0xFFFF'FFFFull;

/// Claims past a call's count land in the low half too (one per worker
/// per wake), so a count keeps well clear of the tag bits.
constexpr std::uint64_t kMaxParallelCount = std::uint64_t{1} << 31;

}  // namespace

std::uint64_t Team::teams_created() noexcept {
  return g_teams_created.load(std::memory_order_relaxed);
}

Team::Team(unsigned workers) : workers_(workers) {
  if (workers == 0 || workers > kMaxWorkers)
    throw std::invalid_argument("Team: workers must be in [1, " +
                                std::to_string(kMaxWorkers) + "]");
  threads_.reserve(workers - 1);
  try {
    for (unsigned w = 1; w < workers; ++w)
      threads_.emplace_back([this, w] { worker_main(w); });
  } catch (...) {
    stop_and_join();
    throw;
  }
  g_teams_created.fetch_add(1, std::memory_order_relaxed);
}

Team::~Team() { stop_and_join(); }

void Team::stop_and_join() {
  {
    std::lock_guard lock(park_mutex_);
    stop_ = true;
  }
  park_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
  threads_.clear();
}

void Team::run(std::uint64_t count, BodyRef body) {
  if (workers_ > 1 && count >= kMaxParallelCount)
    throw std::length_error("Team::parallel_for: count out of range");
  // Timing only exists when someone listens: the no-hook path reads no
  // clock.
  std::chrono::steady_clock::time_point t0;
  if (hook_) t0 = std::chrono::steady_clock::now();
  std::uint64_t executed = count;
  std::exception_ptr error;
  if (workers_ == 1) {
    for (std::uint64_t i = 0; i < count; ++i) {
      try {
        body.call(body.obj, i, 0);
      } catch (...) {
        error = std::current_exception();
        executed = i;
        break;
      }
    }
  } else if (count != 0) {
    run_parallel(count, body);
    executed = count - skipped_.load(std::memory_order_relaxed);
    if (executed != count) {
      std::lock_guard lock(error_mutex_);
      error = std::exchange(error_, nullptr);
    }
  }
  if (hook_) {
    const auto nanos = std::chrono::duration_cast<std::chrono::nanoseconds>(
        std::chrono::steady_clock::now() - t0);
    hook_(PhaseStats{count, executed,
                     static_cast<std::uint64_t>(nanos.count())});
  }
  if (error) std::rethrow_exception(error);
}

void Team::run_parallel(std::uint64_t count, BodyRef body) {
  // Publish the call: everything a claimant reads is written before the
  // release store of the claim word, which heads the release sequence
  // every claim's fetch_add reads from.
  const std::uint64_t tag = std::uint64_t{++generation_} << 32;
  body_ = body;
  failed_.store(false, std::memory_order_relaxed);
  skipped_.store(0, std::memory_order_relaxed);
  remaining_.store(count, std::memory_order_relaxed);
  bound_.store(tag | count, std::memory_order_relaxed);
  claim_.store(tag, std::memory_order_release);

  // Wake the parked workers (every call, whatever its count).
  {
    std::lock_guard lock(park_mutex_);
    ++signal_;
  }
  park_cv_.notify_all();

  // The caller works as worker 0, then waits for the last index only —
  // never for an idle worker to park.
  if (work(0)) return;
  std::unique_lock lock(done_mutex_);
  done_cv_.wait(lock, [&] { return done_; });
  done_ = false;
}

bool Team::work(unsigned worker) {
  std::uint64_t finished = 0;
  for (;;) {
    const std::uint64_t c = claim_.fetch_add(1, std::memory_order_acq_rel);
    const std::uint64_t b = bound_.load(std::memory_order_acquire);
    // A claim from another call's word, or past its count, is no work.
    // While this worker holds an unfinished index the call cannot end, so
    // the tag cannot move on inside this loop.
    if ((c >> 32) != (b >> 32) || (c & kIndexMask) >= (b & kIndexMask)) break;
    if (failed_.load(std::memory_order_relaxed)) {
      skipped_.fetch_add(1, std::memory_order_relaxed);
    } else {
      try {
        body_.call(body_.obj, c & kIndexMask, worker);
      } catch (...) {
        {
          std::lock_guard lock(error_mutex_);
          if (!error_) error_ = std::current_exception();
        }
        failed_.store(true, std::memory_order_relaxed);
        skipped_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    ++finished;
  }
  // The acq_rel decrements order every body before the one that reaches
  // zero, and through it before the caller's return.
  return finished != 0 &&
         remaining_.fetch_sub(finished, std::memory_order_acq_rel) == finished;
}

void Team::worker_main(unsigned worker) {
  std::uint64_t seen = 0;  // signal of the last call this worker looked at
  for (;;) {
    {
      std::unique_lock lock(park_mutex_);
      park_cv_.wait(lock, [&] { return stop_ || signal_ != seen; });
      if (stop_) return;
      seen = signal_;
    }
    if (work(worker)) {
      {
        std::lock_guard lock(done_mutex_);
        done_ = true;
      }
      done_cv_.notify_one();
    }
  }
}

}  // namespace c64fft::codelet
