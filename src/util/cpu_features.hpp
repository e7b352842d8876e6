#pragma once
// Runtime CPU feature probe and the ISA-level ladder of the explicit-SIMD
// kernel layer (src/fft/kernels/).
//
// The kernel dispatch table is selected once per process from two inputs:
// what the hardware supports (cpuid, via the compiler's
// __builtin_cpu_supports on x86) and what the user allows (the C64FFT_ISA
// environment variable, which can only narrow — asking for avx2 on a
// host without it clamps down to scalar, as does every level on a non-x86
// build). `kScalar` is always valid: it is the portable
// autovectorized kernel set that every other level is tested against.

#include <cstdint>
#include <optional>
#include <string>

namespace c64fft::util {

/// Kernel ISA ladder, ordered: a level implies every lower one. The
/// numeric order is load-bearing (clamping picks the min of request and
/// support).
enum class IsaLevel { kScalar = 0, kAvx2 = 1 };

/// Stable lower-case name ("scalar" / "avx2") used by C64FFT_ISA, fft_lint
/// reports, and tests.
const char* to_string(IsaLevel level) noexcept;

/// Parse an ISA name (the C64FFT_ISA vocabulary, plus "auto" meaning
/// "best supported"); nullopt on anything else.
std::optional<IsaLevel> parse_isa_name(const std::string& name);

/// What the hardware this process runs on can execute. Detected once via
/// cpuid (x86) and cached; all-false on other architectures.
struct CpuFeatures {
  bool avx2 = false;
  bool fma = false;
};

const CpuFeatures& cpu_features();

/// Highest IsaLevel cpu_features() can execute.
IsaLevel best_supported_isa();

/// True when this host can execute `level`.
bool isa_supported(IsaLevel level);

/// Data-cache capacities of the executing core, in bytes. Probed once via
/// sysconf (Linux exposes the cpuid/dt leaves through
/// _SC_LEVEL*_DCACHE_SIZE / _SC_LEVEL*_CACHE_SIZE) and cached; levels the
/// OS does not report fall back to conservative defaults so planner
/// arithmetic never divides by zero on exotic hosts.
struct CacheInfo {
  std::uint64_t l1d_bytes = 32ull << 10;
  std::uint64_t l2_bytes = 1ull << 20;
  std::uint64_t l3_bytes = 8ull << 20;
};

const CacheInfo& cache_info();

/// The process-default kernel ISA: best_supported_isa(), narrowed by a
/// valid C64FFT_ISA environment variable ("scalar" | "avx2" | "auto"). An
/// unset, empty, or unparsable variable means "auto"; a request above
/// hardware support clamps to the best supported level.
/// Reads the environment on every call (cheap; callers that need a
/// snapshot cache the result — see fft::kernels::active_kernels).
IsaLevel isa_from_env();

}  // namespace c64fft::util
