// Pipeline buffer detection — Sec. II of the paper.
//
// Examines each buffer stage of a Schedule against the three legality
// rules:
//   1. The buffer must be produced by an asynchronous memory copy on the
//      target (no fused compute into the copy, hardware must support the
//      scope pair).
//   2. The buffer must be produced inside a *sequential* load-and-use loop
//      (not parallel, not unrolled, not filled just once).
//   3. Scope-based synchronization: all pipelined buffers sharing a
//      synchronization scope (shared memory on Ampere) must have matching
//      synchronization positions; on conflict, pipelining is refused for
//      those buffers.
//
// AutoPipeline applies detection and attaches the schedule's stage counts
// (config.smem_stages / config.reg_stages) to the eligible buffers — the
// paper's buffer.pipeline(stage=n) primitive, applied automatically.
#ifndef ALCOP_PIPELINE_DETECT_H_
#define ALCOP_PIPELINE_DETECT_H_

#include <string>
#include <vector>

#include "schedule/schedule.h"
#include "target/gpu_spec.h"

namespace alcop {
namespace pipeline {

struct DetectionEntry {
  std::string buffer;
  bool eligible = false;
  // Human-readable refusal reason ("" when eligible); surfaced in tuning
  // logs and asserted on by the tests.
  std::string reason;
  // Stable diagnostic code for the refused rule ("" when eligible):
  //   D001 no producing copy            (rule 1)
  //   D002 producer not asynchronous    (rule 1)
  //   D003 no sequential load-use loop  (rule 2)
  //   D004 sync-position conflict       (rule 3)
  std::string code;
};

struct DetectionResult {
  std::vector<DetectionEntry> entries;

  bool IsEligible(const std::string& buffer) const;
  const DetectionEntry* Find(const std::string& buffer) const;
};

// Evaluates the three rules for every non-global stage of the schedule.
DetectionResult DetectPipelineBuffers(const schedule::Schedule& schedule,
                                      const target::GpuSpec& spec);

// Runs detection, then marks each eligible buffer with the stage count the
// schedule config requests for its scope (values of 1 leave the buffer
// un-pipelined). Returns the detection result for reporting.
DetectionResult AutoPipeline(schedule::Schedule& schedule,
                             const target::GpuSpec& spec);

}  // namespace pipeline
}  // namespace alcop

#endif  // ALCOP_PIPELINE_DETECT_H_
