#include "fft/kernels/dispatch.hpp"

#include <atomic>

#include "fft/kernels/tables.hpp"

namespace c64fft::fft::kernels {

namespace {

// Active level, shared by both precisions so a forced ISA applies to the
// whole process. kUnresolved (-1) means "resolve lazily from the
// environment on first use".
constexpr int kUnresolved = -1;
std::atomic<int> g_active_level{kUnresolved};

util::IsaLevel clamp_to_supported(util::IsaLevel level) {
  return util::isa_supported(level) ? level : util::best_supported_isa();
}

util::IsaLevel resolve_active() {
  int cur = g_active_level.load(std::memory_order_acquire);
  if (cur == kUnresolved) {
    const util::IsaLevel from_env = util::isa_from_env();
    // Benign race: concurrent first users resolve the same environment.
    g_active_level.store(static_cast<int>(from_env), std::memory_order_release);
    return from_env;
  }
  return static_cast<util::IsaLevel>(cur);
}

}  // namespace

template <typename T>
const KernelDispatch<T>& kernels_for(util::IsaLevel level) {
#if defined(C64FFT_KERNELS_AVX2)
  if (level == util::IsaLevel::kAvx2) return detail::avx2_table<T>();
#endif
  (void)level;
  return detail::scalar_table<T>();
}

template <typename T>
const KernelDispatch<T>& active_kernels() {
  return kernels_for<T>(resolve_active());
}

util::IsaLevel set_kernel_isa(util::IsaLevel level) {
  const util::IsaLevel installed = clamp_to_supported(level);
  g_active_level.store(static_cast<int>(installed), std::memory_order_release);
  return installed;
}

util::IsaLevel reset_kernel_isa_from_env() {
  const util::IsaLevel level = util::isa_from_env();
  g_active_level.store(static_cast<int>(level), std::memory_order_release);
  return level;
}

util::IsaLevel active_kernel_isa() { return resolve_active(); }

template const KernelDispatch<float>& kernels_for<float>(util::IsaLevel);
template const KernelDispatch<double>& kernels_for<double>(util::IsaLevel);
template const KernelDispatch<float>& active_kernels<float>();
template const KernelDispatch<double>& active_kernels<double>();

}  // namespace c64fft::fft::kernels
