// Static pipeline-synchronization verifier.
//
// An abstract interpretation of Tensor-IR that proves (or refutes) the
// correctness of the four pipeline synchronization primitives the program
// transformation injects (Sec. III-B), without executing any data. It
// mirrors the dynamic checker of the functional executor at *slot*
// granularity: instead of per-element pending flags it tracks, per
// pipelined buffer, which leading-dimension slot each in-flight commit
// group wrote — exact for the tile-granular IR this compiler produces,
// where every async copy addresses one whole stage slot. The walk itself
// (loop enumeration, the FIFO, the step budget) is verify/sync_walk.h,
// shared with alcop-lint's region-race check; the slot tracker here owns
// every V-code. Region bounds are checked at the *corners* of every
// enclosing blockIdx/warp loop ({0, extent-1}), which bounds the affine
// tile offsets the lowering produces.
//
// Diagnostic codes (see DESIGN.md for the paper rule each enforces):
//   V001 error   read of async-copied data not covered by a consumer_wait
//   V002 error   producer_acquire beyond stage capacity (FIFO deadlock)
//   V003 error   consumer_wait targets a group never committed
//   V004 error   consumer_release exceeds committed groups
//   V005 warning two live commit groups alias one buffer slot
//   V006 error   copy/MMA region out of bounds of its buffer
//   V007 error   memory-scope violation (illegal copy scope pair)
//   V008 error   threadblock barrier inside a divergent warp loop
//   V009 error   malformed IR (unbound vars, bad regions, sync w/o buffers)
//
// V001-V004 are exactly the conditions the executor's dynamic
// check_async_semantics enforces; the fuzz differential asserts the two
// checkers agree on them. A program whose walk stops at the step budget
// (verify::kMaxSteps) is never reported clean.
#ifndef ALCOP_VERIFY_VERIFIER_H_
#define ALCOP_VERIFY_VERIFIER_H_

#include <string>
#include <vector>

#include "ir/stmt.h"
#include "verify/diagnostic.h"

namespace alcop {
namespace verify {

struct VerifyResult {
  std::vector<Diagnostic> diagnostics;
  bool reached_step_limit = false;

  bool HasErrors() const;
  // No findings at all, warnings included, over a walk that finished.
  bool Clean() const { return diagnostics.empty() && !reached_step_limit; }
  // True if an error carries one of the codes the executor's dynamic
  // checker also enforces (V001-V004); the fuzz differential compares
  // this verdict against "executor throws".
  bool HasSyncError() const;
  std::string Render() const;
};

VerifyResult VerifyProgram(const ir::Stmt& program);

// True when the ALCOP_VERIFY environment variable enables post-pass
// self-verification (any non-empty value except "0"; CI sets it).
bool VerificationEnabled();

// The self-check's verdict on one pass's output: throws CheckError naming
// `producer` when the IR has verification errors or when its walk stopped
// at the step budget (an unfinished walk proves nothing); warnings pass.
void VerifyOrThrow(const ir::Stmt& program, const char* producer);

// Env-gated wrapper used by schedule::LowerSchedule and
// pipeline::ApplyPipelineTransform to verify their own output:
// VerifyOrThrow when ALCOP_VERIFY is set, a no-op otherwise.
void VerifyOrThrowIfEnabled(const ir::Stmt& program, const char* producer);

}  // namespace verify
}  // namespace alcop

#endif  // ALCOP_VERIFY_VERIFIER_H_
