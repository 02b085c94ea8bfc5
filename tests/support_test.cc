// Tests of the support utilities (checking macros, RNG, JSON writing) and
// the GPU target specs.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>

#include "support/check.h"
#include "support/json.h"
#include "support/rng.h"
#include "target/gpu_spec.h"

namespace alcop {
namespace {

TEST(CheckTest, PassingCheckDoesNotThrow) {
  EXPECT_NO_THROW(ALCOP_CHECK(true) << "never seen");
  EXPECT_NO_THROW(ALCOP_CHECK_EQ(2, 2));
  EXPECT_NO_THROW(ALCOP_CHECK_LT(1, 2));
}

TEST(CheckTest, FailingCheckThrowsWithMessage) {
  try {
    ALCOP_CHECK_EQ(2, 3) << "extra context";
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("2 == 3"), std::string::npos) << what;
    EXPECT_NE(what.find("(2 vs 3)"), std::string::npos);
    EXPECT_NE(what.find("extra context"), std::string::npos);
    EXPECT_NE(what.find("support_test.cc"), std::string::npos);
  }
}

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, UniformIntStaysInRange) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u) << "all values of a small range must appear";
}

TEST(RngTest, UniformRealInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, ChoiceRespectsWeights) {
  Rng rng(11);
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 3000; ++i) {
    ++counts[rng.Choice({1.0, 0.0, 9.0})];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_GT(counts[2], counts[0] * 4);
}

TEST(RngTest, ChoiceInvalidWeightsThrow) {
  Rng rng(1);
  EXPECT_THROW(rng.Choice({}), CheckError);
  EXPECT_THROW(rng.Choice({0.0, 0.0}), CheckError);
}

TEST(RngTest, ShuffleIsAPermutation) {
  Rng rng(5);
  std::vector<int> values = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = values;
  rng.Shuffle(shuffled);
  std::multiset<int> a(values.begin(), values.end());
  std::multiset<int> b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

TEST(JsonTest, EscapesControlBytesAndFormatsNumbers) {
  EXPECT_EQ(support::JsonEscape("a\"b\\c\n\t\r\x01\x1f~"),
            "a\\\"b\\\\c\\n\\t\\r\\u0001\\u001f~");
  EXPECT_EQ(support::JsonNumber(42.0), "42");
  EXPECT_EQ(support::JsonNumber(0.1), "0.10000000000000001");
  EXPECT_EQ(support::JsonNumber(std::numeric_limits<double>::infinity()),
            "null");
  EXPECT_EQ(support::JsonNumber(std::nan("")), "null");
  // Edge values, each as %.17g prints it.
  EXPECT_EQ(support::JsonNumber(-std::numeric_limits<double>::infinity()),
            "null");
  EXPECT_EQ(support::JsonNumber(-0.0), "-0");
  EXPECT_EQ(support::JsonNumber(std::numeric_limits<double>::denorm_min()),
            "4.9406564584124654e-324");
  EXPECT_EQ(support::JsonNumber(-std::numeric_limits<double>::min()),
            "-2.2250738585072014e-308");
  EXPECT_EQ(support::JsonNumber(std::numeric_limits<double>::max()),
            "1.7976931348623157e+308");
  EXPECT_EQ(support::JsonNumber(1e16), "10000000000000000");
  EXPECT_EQ(support::JsonNumber(1e17), "1e+17");
  EXPECT_EQ(support::JsonNumber(9007199254740992.0), "9007199254740992");
  EXPECT_EQ(support::JsonNumber(0.0001), "0.0001");
  EXPECT_EQ(support::JsonNumber(1e-5), "1.0000000000000001e-05");
  EXPECT_EQ(support::JsonNumber(-1e300), "-1.0000000000000001e+300");
  // The longest output fills the writer's buffer exactly.
  EXPECT_EQ(support::JsonNumber(-std::numeric_limits<double>::min()).size(),
            support::kJsonNumberMaxChars);
}

TEST(GpuSpecTest, AmpereAsyncCapabilityTable) {
  target::GpuSpec spec = target::AmpereSpec();
  using ir::MemScope;
  EXPECT_TRUE(spec.SupportsAsyncCopy(MemScope::kGlobal, MemScope::kShared,
                                     /*has_fused_op=*/false));
  EXPECT_FALSE(spec.SupportsAsyncCopy(MemScope::kGlobal, MemScope::kShared,
                                      /*has_fused_op=*/true));
  EXPECT_TRUE(spec.SupportsAsyncCopy(MemScope::kShared, MemScope::kRegister,
                                     /*has_fused_op=*/true));
  EXPECT_FALSE(spec.SupportsAsyncCopy(MemScope::kGlobal, MemScope::kRegister,
                                      /*has_fused_op=*/false));
}

TEST(GpuSpecTest, VoltaLacksCpAsync) {
  target::GpuSpec spec = target::VoltaLikeSpec();
  using ir::MemScope;
  EXPECT_FALSE(spec.SupportsAsyncCopy(MemScope::kGlobal, MemScope::kShared,
                                      /*has_fused_op=*/false));
  EXPECT_TRUE(spec.SupportsAsyncCopy(MemScope::kShared, MemScope::kRegister,
                                     /*has_fused_op=*/false));
}

TEST(GpuSpecTest, GenerationsScaleSensibly) {
  target::GpuSpec volta = target::VoltaLikeSpec();
  target::GpuSpec ampere = target::AmpereSpec();
  target::GpuSpec hopper = target::HopperLikeSpec();
  EXPECT_LT(volta.tc_flops_per_sm_per_cycle, ampere.tc_flops_per_sm_per_cycle);
  EXPECT_LT(ampere.tc_flops_per_sm_per_cycle, hopper.tc_flops_per_sm_per_cycle);
  // Compute grows faster than bandwidth: the pipelining motivation.
  double ampere_intensity = ampere.tc_flops_per_sm_per_cycle * ampere.num_sms /
                            ampere.dram_bw_bytes_per_cycle;
  double hopper_intensity = hopper.tc_flops_per_sm_per_cycle * hopper.num_sms /
                            hopper.dram_bw_bytes_per_cycle;
  EXPECT_GT(hopper_intensity, ampere_intensity);
}

TEST(GpuSpecTest, CyclesToUs) {
  target::GpuSpec spec = target::AmpereSpec();
  EXPECT_NEAR(spec.CyclesToUs(1410.0), 1.0, 1e-9);  // 1.41 GHz
}

}  // namespace
}  // namespace alcop
