#include "util/cpu_features.hpp"

#include <cstdlib>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

namespace c64fft::util {

const char* to_string(IsaLevel level) noexcept {
  switch (level) {
    case IsaLevel::kAvx2:
      return "avx2";
    case IsaLevel::kScalar:
    default:
      return "scalar";
  }
}

std::optional<IsaLevel> parse_isa_name(const std::string& name) {
  if (name == "scalar") return IsaLevel::kScalar;
  if (name == "avx2") return IsaLevel::kAvx2;
  if (name == "auto") return best_supported_isa();
  return std::nullopt;
}

namespace {

CpuFeatures detect() {
  CpuFeatures f;
#if defined(__x86_64__) || defined(__i386__)
  // __builtin_cpu_supports reads cpuid once at startup (libgcc caches the
  // leaves); it also checks OS XSAVE support for the wide register files,
  // which a raw cpuid leaf test would miss.
  f.avx2 = __builtin_cpu_supports("avx2");
  f.fma = __builtin_cpu_supports("fma");
#endif
  return f;
}

}  // namespace

const CpuFeatures& cpu_features() {
  static const CpuFeatures f = detect();
  return f;
}

namespace {

CacheInfo detect_caches() {
  CacheInfo c;  // conservative defaults from the struct initializers
#if defined(__unix__) || defined(__APPLE__)
  const auto probe = [](int name, std::uint64_t& out) {
#ifdef _SC_LEVEL1_DCACHE_SIZE
    const long v = ::sysconf(name);
    if (v > 0) out = static_cast<std::uint64_t>(v);
#else
    (void)name;
    (void)out;
#endif
  };
#ifdef _SC_LEVEL1_DCACHE_SIZE
  probe(_SC_LEVEL1_DCACHE_SIZE, c.l1d_bytes);
  probe(_SC_LEVEL2_CACHE_SIZE, c.l2_bytes);
  probe(_SC_LEVEL3_CACHE_SIZE, c.l3_bytes);
#endif
#endif
  return c;
}

}  // namespace

const CacheInfo& cache_info() {
  static const CacheInfo c = detect_caches();
  return c;
}

IsaLevel best_supported_isa() {
  const CpuFeatures& f = cpu_features();
  if (f.avx2) return IsaLevel::kAvx2;
  return IsaLevel::kScalar;
}

bool isa_supported(IsaLevel level) {
  return static_cast<int>(level) <= static_cast<int>(best_supported_isa());
}

IsaLevel isa_from_env() {
  const IsaLevel best = best_supported_isa();
  const char* raw = std::getenv("C64FFT_ISA");
  if (raw == nullptr || *raw == '\0') return best;
  const std::optional<IsaLevel> parsed = parse_isa_name(raw);
  if (!parsed) return best;
  return static_cast<int>(*parsed) < static_cast<int>(best) ? *parsed : best;
}

}  // namespace c64fft::util
