#pragma once
// Heap-allocation probe for the zero-allocation serving contract.
//
// The serving layer promises an allocation-free steady-state
// submit→complete path; this header makes that promise measurable
// instead of aspirational. A binary that defines
// C64FFT_ALLOC_PROBE_IMPLEMENT in EXACTLY ONE translation unit gets
// process-wide replacement operator new/delete that bump a thread-local
// counter on every allocation; test_serve_alloc asserts the counter does
// not move across the steady-state loop, and tools/fft_loadgen reports
// it per run. Binaries that do not opt in are completely unaffected —
// nothing here is linked into the library.
//
// The counter is thread-local on purpose: the client thread's count
// covers submit()/wait() without cross-thread noise, and passing
// &thread_alloc_count as ServerOptions::alloc_probe has the dispatcher
// bracket its executor calls with it, splitting that thread's count
// into executor-internal allocations (plan builds and first-use
// scratch; a warm executor call allocates nothing on any route or team
// size) and the serving layer's own drain/group/complete path. Both
// counts must stay at zero in steady state: test_serve_alloc and
// fft_loadgen --assert-zero-alloc fail on either.

#include <cstdint>

namespace c64fft::serve {

/// Allocations performed by THIS thread since it started (only counted
/// in binaries that implement the probe; always 0 elsewhere).
std::uint64_t thread_alloc_count() noexcept;

}  // namespace c64fft::serve

#ifdef C64FFT_ALLOC_PROBE_IMPLEMENT

#include <cstdlib>
#include <new>

namespace c64fft::serve::detail {
// Plain uint64 TLS (not an atomic): each thread only touches its own.
inline thread_local std::uint64_t t_alloc_count = 0;
}  // namespace c64fft::serve::detail

namespace c64fft::serve {
std::uint64_t thread_alloc_count() noexcept { return detail::t_alloc_count; }
}  // namespace c64fft::serve

namespace {

void* probe_alloc(std::size_t size) {
  ++c64fft::serve::detail::t_alloc_count;
  if (size == 0) size = 1;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* probe_alloc_aligned(std::size_t size, std::size_t align) {
  ++c64fft::serve::detail::t_alloc_count;
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

#else  // !C64FFT_ALLOC_PROBE_IMPLEMENT

namespace c64fft::serve {
inline std::uint64_t thread_alloc_count() noexcept { return 0; }
}  // namespace c64fft::serve

#endif  // C64FFT_ALLOC_PROBE_IMPLEMENT
