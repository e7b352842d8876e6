#include "util/cpu_features.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

namespace c64fft::util {
namespace {

struct EnvGuard {
  ~EnvGuard() { unsetenv("C64FFT_ISA"); }
};

TEST(CpuFeatures, NamesRoundTripThroughParse) {
  for (const IsaLevel level :
       {IsaLevel::kScalar, IsaLevel::kAvx2}) {
    const std::optional<IsaLevel> parsed = parse_isa_name(to_string(level));
    ASSERT_TRUE(parsed.has_value()) << to_string(level);
    EXPECT_EQ(*parsed, level);
  }
}

TEST(CpuFeatures, ParseRejectsUnknownNames) {
  EXPECT_FALSE(parse_isa_name("").has_value());
  EXPECT_FALSE(parse_isa_name("sse2").has_value());
  EXPECT_FALSE(parse_isa_name("AVX2").has_value());  // names are lower-case
  EXPECT_FALSE(parse_isa_name("avx-512").has_value());
  // AVX-512 hosts run the AVX2 table; no level of its own is named.
  EXPECT_FALSE(parse_isa_name("avx512").has_value());
}

TEST(CpuFeatures, AutoMeansBestSupported) {
  const std::optional<IsaLevel> parsed = parse_isa_name("auto");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(*parsed, best_supported_isa());
}

TEST(CpuFeatures, LadderIsConsistent) {
  // Scalar always runs and the best supported level is itself supported;
  // with two levels that makes support monotone down the ladder.
  EXPECT_TRUE(isa_supported(IsaLevel::kScalar));
  EXPECT_TRUE(isa_supported(best_supported_isa()));
}

TEST(CpuFeatures, FeatureBitsMatchSupportedLevels) {
  EXPECT_EQ(isa_supported(IsaLevel::kAvx2), cpu_features().avx2);
}

TEST(CpuFeatures, EnvNarrowsButNeverWidens) {
  EnvGuard guard;
  setenv("C64FFT_ISA", "scalar", 1);
  EXPECT_EQ(isa_from_env(), IsaLevel::kScalar);
  // A request above hardware support clamps down, never up.
  setenv("C64FFT_ISA", "avx2", 1);
  EXPECT_LE(static_cast<int>(isa_from_env()),
            static_cast<int>(best_supported_isa()));
  // Unset / empty / garbage all mean "auto".
  unsetenv("C64FFT_ISA");
  EXPECT_EQ(isa_from_env(), best_supported_isa());
  setenv("C64FFT_ISA", "", 1);
  EXPECT_EQ(isa_from_env(), best_supported_isa());
  setenv("C64FFT_ISA", "quantum", 1);
  EXPECT_EQ(isa_from_env(), best_supported_isa());
}

}  // namespace
}  // namespace c64fft::util
