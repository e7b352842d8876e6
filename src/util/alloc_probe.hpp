#pragma once
// Heap-allocation probe for the zero-allocation contract.
//
// The executor and the serving layer promise allocation-free warm calls
// and an allocation-free steady-state submit→complete path; this header
// makes that promise measurable instead of aspirational. A binary that
// defines C64FFT_ALLOC_PROBE_IMPLEMENT in EXACTLY ONE translation unit
// gets replacement operator new/delete that bump one process-wide
// counter on every allocation, on every thread. A check reads
// alloc_count() before and after its window, so the client, the server's
// dispatcher and every team worker all count: test_serve_alloc asserts
// the delta is 0 across warm calls and steady-state serving loops, and
// tools/fft_loadgen reports it per pass (--assert-zero-alloc fails on
// it). No library implements or calls it: production links none of it
// (the boundary_check ctest names alloc_count as a harness symbol).

#include <cstdint>

namespace c64fft::util {

/// Allocations made by every thread of the process so far. Defined only
/// in the one translation unit of a binary that implements the probe.
std::uint64_t alloc_count() noexcept;

}  // namespace c64fft::util

#ifdef C64FFT_ALLOC_PROBE_IMPLEMENT

#include <atomic>
#include <cstdlib>
#include <new>

namespace c64fft::util::detail {
inline std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace c64fft::util::detail

namespace c64fft::util {
std::uint64_t alloc_count() noexcept {
  return detail::g_alloc_count.load(std::memory_order_relaxed);
}
}  // namespace c64fft::util

namespace {

void* probe_alloc(std::size_t size) {
  c64fft::util::detail::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* probe_alloc_aligned(std::size_t size, std::size_t align) {
  c64fft::util::detail::g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = align;
  // aligned_alloc requires size to be a multiple of alignment.
  size = (size + align - 1) / align * align;
  if (void* p = std::aligned_alloc(align, size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return probe_alloc(size); }
void* operator new[](std::size_t size) { return probe_alloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return probe_alloc_aligned(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return probe_alloc_aligned(size, static_cast<std::size_t>(align));
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

#endif  // C64FFT_ALLOC_PROBE_IMPLEMENT
