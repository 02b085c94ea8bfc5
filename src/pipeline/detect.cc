#include "pipeline/detect.h"

#include <map>

#include "obs/trace.h"
#include "support/check.h"

namespace alcop {
namespace pipeline {

using schedule::Schedule;
using schedule::StageInfo;

bool DetectionResult::IsEligible(const std::string& buffer) const {
  const DetectionEntry* entry = Find(buffer);
  return entry != nullptr && entry->eligible;
}

const DetectionEntry* DetectionResult::Find(const std::string& buffer) const {
  for (const DetectionEntry& entry : entries) {
    if (entry.buffer == buffer) return &entry;
  }
  return nullptr;
}

DetectionResult DetectPipelineBuffers(const Schedule& schedule,
                                      const target::GpuSpec& spec) {
  DetectionResult result;

  for (const StageInfo& stage : schedule.stages()) {
    if (stage.scope == ir::MemScope::kGlobal ||
        stage.scope == ir::MemScope::kAccumulator) {
      continue;  // only memory-hierarchy read buffers are candidates
    }
    DetectionEntry entry;
    entry.buffer = stage.name;

    const StageInfo* source = schedule.FindStage(stage.source);

    // Rule 1: produced by an asynchronous memory copy. A stage whose
    // producer applies an elementwise op, or whose scope pair the hardware
    // cannot copy asynchronously, fails.
    if (source == nullptr) {
      entry.reason = "no producing copy";
      entry.code = "D001";
    } else if (!spec.SupportsAsyncCopy(source->scope, stage.scope,
                                       stage.producer_op != ir::EwiseOp::kNone)) {
      entry.reason =
          stage.producer_op != ir::EwiseOp::kNone
              ? "producer is a compute op, not an asynchronous copy"
              : "target lacks asynchronous copy for this scope pair";
      entry.code = "D002";
    } else if (!stage.in_sequential_loop) {
      // Rule 2: must live in a sequential load-and-use loop (stencil-style
      // fill-once buffers and parallel/unrolled loops fail here).
      entry.reason = "not produced inside a sequential load-and-use loop";
      entry.code = "D003";
    } else {
      entry.eligible = true;
    }
    result.entries.push_back(std::move(entry));
  }

  // Rule 3: scope-based synchronization. On Ampere the special memory
  // barriers exist for the shared-memory scope only, so all pipelined
  // shared-scope buffers must share one synchronization position. On
  // conflict the pass refuses to pipeline any of them (paper Sec. II-A).
  std::map<int, int> shared_positions;  // sync_position -> count
  bool shared_conflict = false;
  for (const StageInfo& stage : schedule.stages()) {
    if (stage.scope != ir::MemScope::kShared) continue;
    const DetectionEntry* entry = result.Find(stage.name);
    if (entry == nullptr) continue;
    if (!entry->eligible) {
      // An ineligible shared buffer keeps its threadblock barriers; those
      // barriers occupy the scope's synchronization position, conflicting
      // with pipeline primitives for any same-scope peer.
      shared_conflict = true;
      continue;
    }
    ++shared_positions[stage.sync_position];
  }
  if (shared_conflict || shared_positions.size() > 1) {
    for (DetectionEntry& entry : result.entries) {
      const StageInfo* stage = schedule.FindStage(entry.buffer);
      if (stage != nullptr && stage->scope == ir::MemScope::kShared &&
          entry.eligible) {
        entry.eligible = false;
        entry.reason =
            "synchronization position conflict within the shared-memory scope";
        entry.code = "D004";
      }
    }
  }

  return result;
}

DetectionResult AutoPipeline(Schedule& schedule, const target::GpuSpec& spec) {
  ALCOP_TRACE_SCOPE("detect", "compiler");
  DetectionResult result = DetectPipelineBuffers(schedule, spec);
  const schedule::ScheduleConfig& config = schedule.config();
  for (StageInfo& stage : schedule.stages()) {
    if (!result.IsEligible(stage.name)) {
      stage.pipeline_stages = 1;
      continue;
    }
    switch (stage.scope) {
      case ir::MemScope::kShared:
        stage.pipeline_stages = config.smem_stages;
        break;
      case ir::MemScope::kRegister:
        stage.pipeline_stages = config.reg_stages;
        break;
      default:
        stage.pipeline_stages = 1;
        break;
    }
  }
  return result;
}

}  // namespace pipeline
}  // namespace alcop
