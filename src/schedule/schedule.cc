#include "schedule/schedule.h"

#include <charconv>

#include "support/check.h"

namespace alcop {
namespace schedule {

std::string ScheduleConfig::ToString() const {
  std::string out;
  auto put = [&out](const char* label, int64_t value) {
    char digits[20];  // the longest int64_t
    out += label;
    out.append(digits, std::to_chars(digits, digits + 20, value).ptr);
  };
  put("tb=", tile.tb_m);
  put("x", tile.tb_n);
  put("x", tile.tb_k);
  put(" warp=", tile.warp_m);
  put("x", tile.warp_n);
  put("x", tile.warp_k);
  put(" smem_stages=", smem_stages);
  put(" reg_stages=", reg_stages);
  if (split_k > 1) put(" split_k=", split_k);
  if (raster_block > 1) put(" raster=", raster_block);
  if (!inner_fusion) out += " no-fusion";
  if (!swizzle) out += " no-swizzle";
  if (!async_copies) out += " blocking-copies";
  return out;
}

bool ValidateConfig(const GemmOp& op, const ScheduleConfig& config,
                    std::string* why) {
  auto fail = [&](const std::string& reason) {
    if (why != nullptr) *why = reason;
    return false;
  };
  const TileConfig& t = config.tile;
  if (t.tb_m <= 0 || t.tb_n <= 0 || t.tb_k <= 0 || t.warp_m <= 0 ||
      t.warp_n <= 0 || t.warp_k <= 0) {
    return fail("non-positive tile size");
  }
  if (op.m % t.tb_m != 0) return fail("tb_m does not divide M");
  if (op.n % t.tb_n != 0) return fail("tb_n does not divide N");
  if (config.split_k < 1 || config.split_k > 16) {
    return fail("split_k out of range [1,16]");
  }
  if (config.raster_block < 1 || config.raster_block > 32) {
    return fail("raster_block out of range [1,32]");
  }
  if (op.k % (t.tb_k * config.split_k) != 0) {
    return fail("tb_k x split_k does not divide K");
  }
  if (t.tb_m % t.warp_m != 0) return fail("warp_m does not divide tb_m");
  if (t.tb_n % t.warp_n != 0) return fail("warp_n does not divide tb_n");
  if (t.tb_k % t.warp_k != 0) return fail("warp_k does not divide tb_k");
  if (config.smem_stages < 1 || config.smem_stages > 8) {
    return fail("smem_stages out of range [1,8]");
  }
  if (config.reg_stages < 1 || config.reg_stages > 4) {
    return fail("reg_stages out of range [1,4]");
  }
  int warps = config.NumWarps();
  if (warps < 1 || warps > 16) return fail("warps per threadblock out of [1,16]");
  // The inner load-and-use loop must have at least as many chunks as
  // register pipeline stages, or the pipeline never fills.
  if (t.tb_k / t.warp_k < config.reg_stages) {
    return fail("reg_stages exceeds inner loop extent");
  }
  if (op.k / (t.tb_k * config.split_k) < config.smem_stages) {
    return fail("smem_stages exceeds outer loop extent");
  }
  return true;
}

Schedule::Schedule(GemmOp op, ScheduleConfig config, InlineOrder inline_order)
    : op_(std::move(op)), config_(config), inline_order_(inline_order) {
  std::string why;
  ALCOP_CHECK(ValidateConfig(op_, config_, &why))
      << "invalid schedule for " << op_.name << ": " << why;

  bool has_producer = op_.a_producer_op != ir::EwiseOp::kNone;
  ALCOP_CHECK(has_producer || inline_order_ == InlineOrder::kAfterPipelining ||
              inline_order_ == InlineOrder::kNone)
      << "inline order is only meaningful with an elementwise producer";

  // Graph inputs.
  stages_.push_back({.name = "A", .scope = ir::MemScope::kGlobal, .source = ""});
  stages_.push_back({.name = "B", .scope = ir::MemScope::kGlobal, .source = ""});

  // Standalone materialized producer tensor (no inlining at all).
  std::string a_source = "A";
  ir::EwiseOp smem_op = ir::EwiseOp::kNone;
  ir::EwiseOp reg_op = ir::EwiseOp::kNone;
  if (has_producer) {
    switch (inline_order_) {
      case InlineOrder::kNone:
        stages_.push_back({.name = "A_ew",
                           .scope = ir::MemScope::kGlobal,
                           .source = "A",
                           .producer_op = op_.a_producer_op,
                           .producer_param = op_.a_producer_param});
        a_source = "A_ew";
        break;
      case InlineOrder::kBeforePipelining:
        // Case 1 of Fig. 5: f fused into the Global->Shared copy.
        smem_op = op_.a_producer_op;
        break;
      case InlineOrder::kAfterPipelining:
        // Case 2 of Fig. 5: cache-read A directly; fuse f into the
        // Shared->Register copy feeding the compute.
        reg_op = op_.a_producer_op;
        break;
    }
  }

  // Cache-read stages created before pipelining (Sec. II-B ordering), with
  // the load-loop facts that Tile establishes: shared-memory buffers load
  // in the sequential ko loop (position 0), register buffers in the
  // sequential ki loop (position 1).
  stages_.push_back({.name = "A_shared",
                     .scope = ir::MemScope::kShared,
                     .source = a_source,
                     .producer_op = smem_op,
                     .producer_param = op_.a_producer_param,
                     .in_sequential_loop = true,
                     .sync_position = 0});
  stages_.push_back({.name = "B_shared",
                     .scope = ir::MemScope::kShared,
                     .source = "B",
                     .in_sequential_loop = true,
                     .sync_position = 0});
  stages_.push_back({.name = "A_reg",
                     .scope = ir::MemScope::kRegister,
                     .source = "A_shared",
                     .producer_op = reg_op,
                     .producer_param = op_.a_producer_param,
                     .in_sequential_loop = true,
                     .sync_position = 1});
  stages_.push_back({.name = "B_reg",
                     .scope = ir::MemScope::kRegister,
                     .source = "B_shared",
                     .in_sequential_loop = true,
                     .sync_position = 1});
}

const StageInfo* Schedule::FindStage(const std::string& name) const {
  for (const StageInfo& stage : stages_) {
    if (stage.name == name) return &stage;
  }
  return nullptr;
}

StageInfo* Schedule::FindStage(const std::string& name) {
  for (StageInfo& stage : stages_) {
    if (stage.name == name) return &stage;
  }
  return nullptr;
}

void Schedule::SetPipelineStages(const std::string& name, int stages) {
  StageInfo* stage = FindStage(name);
  ALCOP_CHECK(stage != nullptr) << "unknown buffer '" << name << "'";
  ALCOP_CHECK_GE(stages, 1);
  stage->pipeline_stages = stages;
}

bool Schedule::HasStandaloneEwise() const {
  return FindStage("A_ew") != nullptr;
}

}  // namespace schedule
}  // namespace alcop
