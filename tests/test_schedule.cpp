#include "fft/schedule.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "fft/executor.hpp"
#include "fft/kernels/dispatch.hpp"
#include "util/prng.hpp"

namespace c64fft::fft {
namespace {

TunedSchedule sched(std::uint64_t n, Precision p, util::IsaLevel isa,
                    std::uint32_t fuse) {
  return TunedSchedule{n, p, isa, fuse};
}

TEST(ScheduleSet, InsertReplacesByKeyAndFindMatchesExactly) {
  ScheduleSet set;
  set.insert(sched(4096, Precision::kF32, util::IsaLevel::kAvx2, 3));
  set.insert(sched(4096, Precision::kF64, util::IsaLevel::kAvx2, 2));
  set.insert(sched(4096, Precision::kF32, util::IsaLevel::kScalar, 0));
  EXPECT_EQ(set.size(), 3u);

  // Same key replaces in place.
  set.insert(sched(4096, Precision::kF32, util::IsaLevel::kAvx2, 2));
  EXPECT_EQ(set.size(), 3u);
  const auto hit = set.find(4096, Precision::kF32, util::IsaLevel::kAvx2);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->fuse_log2, 2u);

  // Every key component must match.
  EXPECT_FALSE(set.find(8192, Precision::kF32, util::IsaLevel::kAvx2));
  EXPECT_FALSE(set.find(4096, Precision::kF64, util::IsaLevel::kScalar));
  EXPECT_FALSE(set.find(4096, Precision::kF32, util::IsaLevel::kAvx512));
}

TEST(ScheduleSet, JsonRoundTripPreservesEveryEntry) {
  ScheduleSet set;
  set.insert(sched(1024, Precision::kF32, util::IsaLevel::kScalar, 0));
  set.insert(sched(4096, Precision::kF64, util::IsaLevel::kAvx2, 3));
  set.insert(sched(65536, Precision::kF32, util::IsaLevel::kAvx512, 2));

  const ScheduleSet back = ScheduleSet::from_json(set.to_json());
  ASSERT_EQ(back.size(), set.size());
  for (const TunedSchedule& e : set.entries()) {
    const auto hit = back.find(e.n, e.precision, e.isa);
    ASSERT_TRUE(hit.has_value()) << "n=" << e.n;
    EXPECT_EQ(hit->fuse_log2, e.fuse_log2);
  }
  EXPECT_TRUE(ScheduleSet::from_json(ScheduleSet().to_json()).empty());
}

TEST(ScheduleSet, JsonRoundTripPreservesHierarchicalKnobs) {
  // The fft_tune --hierarchical output: entries whose hierarchical knobs
  // are set round-trip exactly, and entries without them (the
  // pre-hierarchical format) parse to the 0 = planner-default sentinel —
  // the serialized text must not even mention the fields, so old files
  // re-serialize byte-identically.
  TunedSchedule hier = sched(1u << 20, Precision::kF64, util::IsaLevel::kAvx2, 3);
  hier.hier_leaf_log2 = 11;
  hier.hier_block_rows = 32;
  ScheduleSet set;
  set.insert(hier);
  set.insert(sched(4096, Precision::kF32, util::IsaLevel::kScalar, 2));

  const std::string json = set.to_json();
  const ScheduleSet back = ScheduleSet::from_json(json);
  const auto tuned = back.find(1u << 20, Precision::kF64,
                               util::IsaLevel::kAvx2);
  ASSERT_TRUE(tuned.has_value());
  EXPECT_EQ(tuned->hier_leaf_log2, 11u);
  EXPECT_EQ(tuned->hier_block_rows, 32u);

  const auto plain = back.find(4096, Precision::kF32, util::IsaLevel::kScalar);
  ASSERT_TRUE(plain.has_value());
  EXPECT_EQ(plain->hier_leaf_log2, 0u);
  EXPECT_EQ(plain->hier_block_rows, 0u);

  // The default-valued entry's serialized line carries no hierarchical
  // fields (count the mentions: exactly one entry was non-default).
  std::size_t mentions = 0;
  for (std::size_t pos = json.find("hier_leaf_log2"); pos != std::string::npos;
       pos = json.find("hier_leaf_log2", pos + 1))
    ++mentions;
  EXPECT_EQ(mentions, 1u);
}

TEST(ScheduleSet, FromJsonRejectsOutOfRangeHierarchicalKnobs) {
  const auto entry = [](const std::string& body) {
    return "{\"version\":1,\"schedules\":[" + body + "]}";
  };
  EXPECT_THROW(ScheduleSet::from_json(entry(
                   "{\"n\":1048576,\"precision\":\"f64\",\"isa\":\"avx2\","
                   "\"fuse_log2\":3,\"hier_leaf_log2\":3}")),
               std::invalid_argument);
  EXPECT_THROW(ScheduleSet::from_json(entry(
                   "{\"n\":1048576,\"precision\":\"f64\",\"isa\":\"avx2\","
                   "\"fuse_log2\":3,\"hier_leaf_log2\":17}")),
               std::invalid_argument);
  EXPECT_THROW(ScheduleSet::from_json(entry(
                   "{\"n\":1048576,\"precision\":\"f64\",\"isa\":\"avx2\","
                   "\"fuse_log2\":3,\"hier_block_rows\":8192}")),
               std::invalid_argument);
}

TEST(ScheduleSet, FromJsonRejectsMalformedDocuments) {
  EXPECT_THROW(ScheduleSet::from_json("[]"), std::invalid_argument);
  EXPECT_THROW(ScheduleSet::from_json("{}"), std::invalid_argument);
  const auto entry = [](const std::string& body) {
    return "{\"version\":1,\"schedules\":[" + body + "]}";
  };
  // Missing field, bad enum, non-pow2 n, out-of-range knob.
  EXPECT_THROW(ScheduleSet::from_json(entry(
                   "{\"n\":4096,\"precision\":\"f32\",\"isa\":\"avx2\"}")),
               std::invalid_argument);
  EXPECT_THROW(ScheduleSet::from_json(entry(
                   "{\"n\":4096,\"precision\":\"f16\",\"isa\":\"avx2\","
                   "\"fuse_log2\":3}")),
               std::invalid_argument);
  EXPECT_THROW(ScheduleSet::from_json(entry(
                   "{\"n\":4096,\"precision\":\"f32\",\"isa\":\"auto\","
                   "\"fuse_log2\":3}")),
               std::invalid_argument);
  EXPECT_THROW(ScheduleSet::from_json(entry(
                   "{\"n\":4095,\"precision\":\"f32\",\"isa\":\"avx2\","
                   "\"fuse_log2\":3}")),
               std::invalid_argument);
  EXPECT_THROW(ScheduleSet::from_json(entry(
                   "{\"n\":4096,\"precision\":\"f32\",\"isa\":\"avx2\","
                   "\"fuse_log2\":1}")),
               std::invalid_argument);
}

// ---- Executor round trip ----

std::vector<cplx> random_signal(std::uint64_t n, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<cplx> v(n);
  for (auto& x : v)
    x = cplx(rng.next_double() * 2 - 1, rng.next_double() * 2 - 1);
  return v;
}

TEST(ScheduleExecutor, FilesCarryingARadixStillLoad) {
  // Files tuned while the executor still took a radix carry "radix_log2".
  // The loader ignores unknown fields, so such an entry parses, its
  // fuse_log2 still steers the sweep, and re-serializing drops the field.
  const util::IsaLevel isa = kernels::active_kernel_isa();
  const ScheduleSet set = ScheduleSet::from_json(
      "{\"version\":1,\"schedules\":[{\"n\":512,\"precision\":\"f64\","
      "\"isa\":\"" + std::string(util::to_string(isa)) +
      "\",\"radix_log2\":5,\"fuse_log2\":2}]}");
  const auto hit = set.find(512, Precision::kF64, isa);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->fuse_log2, 2u);
  EXPECT_EQ(set.to_json().find("radix_log2"), std::string::npos);

  FftExecutor exec;
  exec.set_schedules(set);
  auto data = random_signal(512, 4);
  exec.forward(std::span<cplx>(data));
  EXPECT_GE(exec.stats().schedule_hits, 1u);
}

TEST(ScheduleExecutor, BluesteinConvolutionSharesTheTunedPow2Entry) {
  // One pow2 key resolver serves the direct route and Bluestein's
  // convolution: with a schedule for M = 256, a 101-point forward
  // (Bluestein, M = next_pow2(201) = 256) and a direct 256-point forward
  // build the Bluestein entry plus ONE shared 256-point entry.
  FftExecutor exec;
  ScheduleSet set;
  set.insert(sched(256, Precision::kF64, kernels::active_kernel_isa(), 2));
  exec.set_schedules(std::move(set));

  auto prime = random_signal(101, 5);
  exec.forward(std::span<cplx>(prime));
  EXPECT_EQ(exec.stats().cache.misses, 2u);
  auto pow2 = random_signal(256, 6);
  exec.forward(std::span<cplx>(pow2));
  EXPECT_EQ(exec.stats().cache.misses, 2u);
  EXPECT_EQ(exec.stats().bluestein, 1u);
}

TEST(ScheduleExecutor, EveryScheduleIsBitIdentical) {
  // fuse_log2 is pure scheduling: a tuned executor must give bit-identical
  // spectra to an untuned one.
  const auto input = random_signal(1024, 7);
  std::vector<cplx> base = input;
  {
    FftExecutor plain;
    plain.forward(std::span<cplx>(base));
  }
  for (const std::uint32_t fuse : {0u, 2u, 3u}) {
    FftExecutor exec;
    ScheduleSet set;
    set.insert(sched(1024, Precision::kF64, kernels::active_kernel_isa(), fuse));
    exec.set_schedules(std::move(set));
    std::vector<cplx> data = input;
    exec.forward(std::span<cplx>(data));
    EXPECT_GE(exec.stats().schedule_hits, 1u) << "fuse=" << fuse;
    for (std::uint64_t i = 0; i < data.size(); ++i) {
      ASSERT_EQ(data[i].real(), base[i].real()) << "fuse=" << fuse << " i=" << i;
      ASSERT_EQ(data[i].imag(), base[i].imag()) << "fuse=" << fuse << " i=" << i;
    }
  }
}

TEST(ScheduleExecutor, LoadSchedulesRoundTripsThroughAFile) {
  const std::string path = ::testing::TempDir() + "c64fft_sched_test.json";
  {
    ScheduleSet set;
    set.insert(sched(512, Precision::kF64, kernels::active_kernel_isa(), 2));
    std::ofstream out(path);
    ASSERT_TRUE(out.good());
    out << set.to_json();
  }
  FftExecutor exec;
  EXPECT_EQ(exec.load_schedules(path), 1u);
  auto data = random_signal(512, 3);
  exec.forward(std::span<cplx>(data));
  EXPECT_GE(exec.stats().schedule_hits, 1u);
  std::remove(path.c_str());

  EXPECT_THROW(exec.load_schedules("/nonexistent/sched.json"),
               std::runtime_error);
}

TEST(ScheduleExecutor, EnvScheduleLoadsAtConstruction) {
  const std::string path = ::testing::TempDir() + "c64fft_sched_env.json";
  {
    ScheduleSet set;
    set.insert(sched(512, Precision::kF64, kernels::active_kernel_isa(), 0));
    std::ofstream out(path);
    ASSERT_TRUE(out.good());
    out << set.to_json();
  }
  setenv("C64FFT_SCHEDULE", path.c_str(), 1);
  {
    FftExecutor exec;
    auto data = random_signal(512, 9);
    exec.forward(std::span<cplx>(data));
    EXPECT_GE(exec.stats().schedule_hits, 1u);
  }
  // A malformed file is ignored (env contract: bad values change nothing).
  {
    std::ofstream out(path);
    out << "{not json";
  }
  {
    FftExecutor exec;
    auto data = random_signal(512, 9);
    exec.forward(std::span<cplx>(data));
    EXPECT_EQ(exec.stats().schedule_hits, 0u);
  }
  unsetenv("C64FFT_SCHEDULE");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace c64fft::fft
