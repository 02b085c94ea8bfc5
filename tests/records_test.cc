// Tests of the canonical workload key.
#include <gtest/gtest.h>

#include "schedule/tensor.h"
#include "tuner/records.h"

namespace alcop {
namespace {

using schedule::MakeBatchMatmul;
using schedule::MakeMatmul;
using tuner::OpKey;

TEST(RecordsTest, OpKeyIsCanonical) {
  EXPECT_EQ(OpKey(MakeMatmul("anything", 512, 768, 3072)),
            "matmul/1/512x768x3072");
  EXPECT_EQ(OpKey(MakeBatchMatmul("x", 12, 512, 64, 512)),
            "batch_matmul/12/512x64x512");
  // The key ignores the name: same problem, same key.
  EXPECT_EQ(OpKey(MakeMatmul("a", 64, 64, 64)),
            OpKey(MakeMatmul("b", 64, 64, 64)));
}

}  // namespace
}  // namespace alcop
