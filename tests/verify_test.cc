// Tests of the static pipeline-synchronization verifier and its
// Diagnostic engine: a table of hand-built bad programs must each produce
// the documented diagnostic code, and every kernel the real compiler
// produces (lowered and pipeline-transformed, all Fig. 10 operators) must
// verify completely clean — the zero-false-positive requirement that makes
// the verifier usable as a self-check inside the passes.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "ir/parser.h"
#include "ir/stmt.h"
#include "sim/launch.h"
#include "support/check.h"
#include "target/gpu_spec.h"
#include "tuner/space.h"
#include "verify/diagnostic.h"
#include "verify/sync_mutator.h"
#include "verify/verifier.h"
#include "workloads/ops.h"

namespace alcop {
namespace {

using namespace alcop::ir;  // NOLINT(build/namespaces) - test IR building

BufferRegion Region(const Buffer& buffer, std::vector<Expr> offsets,
                    std::vector<int64_t> sizes) {
  BufferRegion region;
  region.buffer = buffer;
  region.offsets = std::move(offsets);
  region.sizes = std::move(sizes);
  return region;
}

Stmt AsyncCopy(BufferRegion dst, BufferRegion src, int group) {
  Stmt stmt = Copy(std::move(dst), std::move(src));
  auto node =
      std::make_shared<CopyNode>(*static_cast<const CopyNode*>(stmt.get()));
  node->is_async = true;
  node->pipeline_group = group;
  return node;
}

std::vector<std::string> Codes(const verify::VerifyResult& result) {
  std::vector<std::string> codes;
  for (const verify::Diagnostic& diag : result.diagnostics) {
    codes.push_back(diag.code);
  }
  return codes;
}

bool HasCode(const verify::VerifyResult& result, const std::string& code) {
  for (const verify::Diagnostic& diag : result.diagnostics) {
    if (diag.code == code) return true;
  }
  return false;
}

// ---- Diagnostic engine ----

TEST(DiagnosticTest, RenderIncludesCodePathSpanAndNotes) {
  verify::Diagnostic diag;
  diag.severity = verify::Severity::kError;
  diag.code = "V001";
  diag.message = "read before wait";
  diag.path = "for ko=2 / copy(A_reg)";
  diag.span = {12, 5};
  diag.notes.push_back("slot written by commit group 3");
  std::string text = diag.Render();
  EXPECT_NE(text.find("error[V001]"), std::string::npos) << text;
  EXPECT_NE(text.find("line 12:5"), std::string::npos) << text;
  EXPECT_NE(text.find("read before wait"), std::string::npos) << text;
  EXPECT_NE(text.find("at: for ko=2 / copy(A_reg)"), std::string::npos)
      << text;
  EXPECT_NE(text.find("note: slot written by commit group 3"),
            std::string::npos)
      << text;
}

TEST(DiagnosticTest, EngineCountsSeverities) {
  verify::DiagnosticEngine engine;
  EXPECT_FALSE(engine.HasErrors());
  engine.Emit(verify::Severity::kWarning, "V005", "aliasing");
  EXPECT_FALSE(engine.HasErrors());
  engine.Emit(verify::Severity::kError, "V001", "race");
  EXPECT_TRUE(engine.HasErrors());
  EXPECT_EQ(engine.ErrorCount(), 1u);
  EXPECT_EQ(engine.diagnostics().size(), 2u);
  engine.Clear();
  EXPECT_FALSE(engine.HasErrors());
  EXPECT_TRUE(engine.diagnostics().empty());
}

// ---- Bad-program table: each row one documented code ----

struct Fixture {
  Buffer src = MakeBuffer("src", MemScope::kGlobal, {8, 8});
  Buffer buf = MakeBuffer("buf", MemScope::kShared, {2, 8});  // 2 stages
  Buffer out = MakeBuffer("out", MemScope::kGlobal, {8, 8});
};

// V001: async data read without any consumer_wait covering it.
TEST(VerifierTest, MissingWaitIsV001) {
  Fixture f;
  Stmt program = Block({
      Alloc(f.buf),
      Sync(SyncKind::kProducerAcquire, 0, {f.buf}),
      AsyncCopy(Region(f.buf, {Int(0), Int(0)}, {1, 8}),
                Region(f.src, {Int(0), Int(0)}, {1, 8}), 0),
      Sync(SyncKind::kProducerCommit, 0, {f.buf}),
      Copy(Region(f.out, {Int(0), Int(0)}, {1, 8}),
           Region(f.buf, {Int(0), Int(0)}, {1, 8})),
  });
  verify::VerifyResult result = verify::VerifyProgram(program);
  EXPECT_TRUE(HasCode(result, "V001")) << result.Render();
  EXPECT_TRUE(result.HasSyncError());
}

// V002: third acquire on a two-stage FIFO with nothing released.
TEST(VerifierTest, AcquireOverflowIsV002) {
  Fixture f;
  std::vector<Stmt> seq = {Alloc(f.buf)};
  for (int i = 0; i < 3; ++i) {
    seq.push_back(Sync(SyncKind::kProducerAcquire, 0, {f.buf}));
    seq.push_back(AsyncCopy(Region(f.buf, {Int(i % 2), Int(0)}, {1, 8}),
                            Region(f.src, {Int(i), Int(0)}, {1, 8}), 0));
    seq.push_back(Sync(SyncKind::kProducerCommit, 0, {f.buf}));
  }
  verify::VerifyResult result = verify::VerifyProgram(Block(seq));
  EXPECT_TRUE(HasCode(result, "V002")) << result.Render();
  EXPECT_TRUE(result.HasSyncError());
}

// V003: wait on a group that was never committed.
TEST(VerifierTest, WaitBeforeCommitIsV003) {
  Fixture f;
  Stmt program = Block({
      Alloc(f.buf),
      Sync(SyncKind::kConsumerWait, 0, {f.buf}),
  });
  verify::VerifyResult result = verify::VerifyProgram(program);
  EXPECT_TRUE(HasCode(result, "V003")) << result.Render();
  EXPECT_TRUE(result.HasSyncError());
}

// V003 via wait_ahead: one group committed, but a wait_ahead=1 slack asks
// to leave one in flight — so the wait targets a group past the commits.
TEST(VerifierTest, ExcessWaitAheadIsV003) {
  Fixture f;
  Stmt program = Block({
      Alloc(f.buf),
      Sync(SyncKind::kProducerAcquire, 0, {f.buf}),
      AsyncCopy(Region(f.buf, {Int(0), Int(0)}, {1, 8}),
                Region(f.src, {Int(0), Int(0)}, {1, 8}), 0),
      Sync(SyncKind::kProducerCommit, 0, {f.buf}),
      Sync(SyncKind::kConsumerWait, 0, {f.buf}, /*wait_ahead=*/1),
  });
  verify::VerifyResult result = verify::VerifyProgram(program);
  EXPECT_TRUE(HasCode(result, "V003")) << result.Render();
  // The same program with no slack is clean up to the missing release.
  Stmt ok = Block({
      Alloc(f.buf),
      Sync(SyncKind::kProducerAcquire, 0, {f.buf}),
      AsyncCopy(Region(f.buf, {Int(0), Int(0)}, {1, 8}),
                Region(f.src, {Int(0), Int(0)}, {1, 8}), 0),
      Sync(SyncKind::kProducerCommit, 0, {f.buf}),
      Sync(SyncKind::kConsumerWait, 0, {f.buf}),
  });
  EXPECT_TRUE(verify::VerifyProgram(ok).Clean());
}

// V004: more releases than commits.
TEST(VerifierTest, ReleaseBeyondCommitIsV004) {
  Fixture f;
  Stmt program = Block({
      Alloc(f.buf),
      Sync(SyncKind::kProducerAcquire, 0, {f.buf}),
      AsyncCopy(Region(f.buf, {Int(0), Int(0)}, {1, 8}),
                Region(f.src, {Int(0), Int(0)}, {1, 8}), 0),
      Sync(SyncKind::kProducerCommit, 0, {f.buf}),
      Sync(SyncKind::kConsumerWait, 0, {f.buf}),
      Sync(SyncKind::kConsumerRelease, 0, {f.buf}),
      Sync(SyncKind::kConsumerRelease, 0, {f.buf}),
  });
  verify::VerifyResult result = verify::VerifyProgram(program);
  EXPECT_TRUE(HasCode(result, "V004")) << result.Render();
  EXPECT_TRUE(result.HasSyncError());
}

// The rolling-index bug of Sec. III-B: a fused inner pipeline must rotate
// its slot by the *global* iteration count ((ko*extent_ki + ki) % stages),
// not the inner one (ki % stages). With an odd inner extent the two
// disagree, two live commit groups land in one slot (V005), and the
// consumer then reads data its wait never promoted (V001).
Stmt RollingIndexPipeline(const Fixture& f, bool buggy) {
  // Software pipeline of depth 1 over six flat iterations, written with
  // the flat index i: the inner extent is 3, so the buggy slot index is
  // (i % 3) % 2 while the correct one is i % 2.
  auto slot = [&](Expr flat) {
    return buggy ? FloorMod(FloorMod(flat, 3), 2) : FloorMod(flat, 2);
  };
  Var i = MakeVar("i");
  std::vector<Stmt> seq = {
      Alloc(f.buf),
      // Prologue: load flat iteration 0.
      Sync(SyncKind::kProducerAcquire, 0, {f.buf}),
      AsyncCopy(Region(f.buf, {slot(Int(0)), Int(0)}, {1, 8}),
                Region(f.src, {Int(0), Int(0)}, {1, 8}), 0),
      Sync(SyncKind::kProducerCommit, 0, {f.buf}),
      // Steady state: load iteration i+1, consume iteration i.
      For(i, 5, ForKind::kSerial,
          Block({
              Sync(SyncKind::kProducerAcquire, 0, {f.buf}),
              AsyncCopy(Region(f.buf, {slot(Add(i, 1)), Int(0)}, {1, 8}),
                        Region(f.src, {FloorMod(Add(i, 1), 8), Int(0)},
                               {1, 8}),
                        0),
              Sync(SyncKind::kProducerCommit, 0, {f.buf}),
              Sync(SyncKind::kConsumerWait, 0, {f.buf}),
              Copy(Region(f.out, {FloorMod(i, 8), Int(0)}, {1, 8}),
                   Region(f.buf, {slot(i), Int(0)}, {1, 8})),
              Sync(SyncKind::kConsumerRelease, 0, {f.buf}),
          })),
      // Epilogue: consume flat iteration 5.
      Sync(SyncKind::kConsumerWait, 0, {f.buf}),
      Copy(Region(f.out, {Int(5), Int(0)}, {1, 8}),
           Region(f.buf, {slot(Int(5)), Int(0)}, {1, 8})),
      Sync(SyncKind::kConsumerRelease, 0, {f.buf}),
  };
  return Block(std::move(seq));
}

TEST(VerifierTest, InnerRollingIndexBugIsV005AndV001) {
  Fixture f;
  verify::VerifyResult bad = verify::VerifyProgram(RollingIndexPipeline(f, true));
  EXPECT_TRUE(HasCode(bad, "V005")) << bad.Render();
  EXPECT_TRUE(HasCode(bad, "V001")) << bad.Render();
}

TEST(VerifierTest, GlobalRollingIndexIsClean) {
  Fixture f;
  verify::VerifyResult good =
      verify::VerifyProgram(RollingIndexPipeline(f, false));
  EXPECT_TRUE(good.Clean()) << good.Render();
}

// V006: copy region exceeding the buffer's extents.
TEST(VerifierTest, OutOfBoundsCopyIsV006) {
  Fixture f;
  Stmt program = Block({
      Alloc(f.buf),
      Copy(Region(f.buf, {Int(1), Int(0)}, {2, 8}),  // rows 1..2 of a [2,8]
           Region(f.src, {Int(0), Int(0)}, {2, 8})),
  });
  verify::VerifyResult result = verify::VerifyProgram(program);
  EXPECT_TRUE(HasCode(result, "V006")) << result.Render();
}

// V006 at a parallel-loop corner: the offset is in bounds for warp 0 but
// not for the last warp, which only corner enumeration catches.
TEST(VerifierTest, OutOfBoundsAtParallelCornerIsV006) {
  Fixture f;
  Var w = MakeVar("w");
  Stmt program = Block({
      Alloc(f.buf),
      For(w, 4, ForKind::kWarp,
          Copy(Region(f.buf, {Int(0), Mul(w, 3)}, {1, 2}),  // w=3: cols 9..10
               Region(f.src, {Int(0), Mul(w, 2)}, {1, 2}))),
  });
  verify::VerifyResult result = verify::VerifyProgram(program);
  EXPECT_TRUE(HasCode(result, "V006")) << result.Render();
}

// V007: a plain Global -> Register copy skips the shared-memory staging
// the memory hierarchy requires.
TEST(VerifierTest, GlobalToRegisterCopyIsV007) {
  Fixture f;
  Buffer reg = MakeBuffer("reg", MemScope::kRegister, {2, 8});
  Stmt program = Block({
      Alloc(reg),
      Copy(Region(reg, {Int(0), Int(0)}, {1, 8}),
           Region(f.src, {Int(0), Int(0)}, {1, 8})),
  });
  verify::VerifyResult result = verify::VerifyProgram(program);
  EXPECT_TRUE(HasCode(result, "V007")) << result.Render();
}

// V008: a threadblock barrier inside a divergent warp loop deadlocks.
TEST(VerifierTest, BarrierInWarpLoopIsV008) {
  Var w = MakeVar("w");
  Stmt program = Block({
      For(w, 4, ForKind::kWarp, Block({Barrier()})),
  });
  verify::VerifyResult result = verify::VerifyProgram(program);
  EXPECT_TRUE(HasCode(result, "V008")) << result.Render();
}

// V009: malformed IR — an offset referencing a variable no loop binds.
TEST(VerifierTest, UnboundVariableIsV009) {
  Fixture f;
  Var ghost = MakeVar("ghost");
  Stmt program = Block({
      Alloc(f.buf),
      Copy(Region(f.buf, {ghost, Int(0)}, {1, 8}),
           Region(f.src, {Int(0), Int(0)}, {1, 8})),
  });
  verify::VerifyResult result = verify::VerifyProgram(program);
  EXPECT_TRUE(HasCode(result, "V009")) << result.Render();
}

// A fully synchronized single-group pipeline is clean, and diagnostics are
// deduplicated per statement across loop iterations.
TEST(VerifierTest, CleanPipelineAndLoopDeduplication) {
  Fixture f;
  Var ko = MakeVar("ko");
  Stmt clean = Block({
      Alloc(f.buf),
      For(ko, 4, ForKind::kSerial,
          Block({
              Sync(SyncKind::kProducerAcquire, 0, {f.buf}),
              AsyncCopy(Region(f.buf, {FloorMod(ko, 2), Int(0)}, {1, 8}),
                        Region(f.src, {FloorMod(ko, 8), Int(0)}, {1, 8}), 0),
              Sync(SyncKind::kProducerCommit, 0, {f.buf}),
              Sync(SyncKind::kConsumerWait, 0, {f.buf}),
              Copy(Region(f.out, {FloorMod(ko, 8), Int(0)}, {1, 8}),
                   Region(f.buf, {FloorMod(ko, 2), Int(0)}, {1, 8})),
              Sync(SyncKind::kConsumerRelease, 0, {f.buf}),
          })),
  });
  EXPECT_TRUE(verify::VerifyProgram(clean).Clean());

  // Drop the wait: the read races on every one of the four iterations, but
  // the report carries a single V001 for the copy statement.
  Stmt racy = Block({
      Alloc(f.buf),
      For(ko, 4, ForKind::kSerial,
          Block({
              Sync(SyncKind::kProducerAcquire, 0, {f.buf}),
              AsyncCopy(Region(f.buf, {FloorMod(ko, 2), Int(0)}, {1, 8}),
                        Region(f.src, {FloorMod(ko, 8), Int(0)}, {1, 8}), 0),
              Sync(SyncKind::kProducerCommit, 0, {f.buf}),
              Copy(Region(f.out, {FloorMod(ko, 8), Int(0)}, {1, 8}),
                   Region(f.buf, {FloorMod(ko, 2), Int(0)}, {1, 8})),
              Sync(SyncKind::kConsumerRelease, 0, {f.buf}),
          })),
  });
  verify::VerifyResult result = verify::VerifyProgram(racy);
  size_t v001 = 0;
  for (const std::string& code : Codes(result)) v001 += code == "V001";
  EXPECT_EQ(v001, 1u) << result.Render();
}

// A program that outlasts the step budget is never reported clean: the
// 2100 x 2100 fill nest takes more than verify::kMaxSteps statement
// visits, so the walk stops before the unwaited read after it.
Stmt StepLimitProgram(const Fixture& f) {
  Var i = MakeVar("i");
  Var j = MakeVar("j");
  return Block({
      Alloc(f.buf),
      For(i, 2100, ForKind::kSerial,
          For(j, 2100, ForKind::kSerial,
              Fill(Region(f.out, {Int(0), Int(0)}, {1, 8}), 0.0))),
      Sync(SyncKind::kProducerAcquire, 0, {f.buf}),
      AsyncCopy(Region(f.buf, {Int(0), Int(0)}, {1, 8}),
                Region(f.src, {Int(0), Int(0)}, {1, 8}), 0),
      Sync(SyncKind::kProducerCommit, 0, {f.buf}),
      Copy(Region(f.out, {Int(0), Int(0)}, {1, 8}),
           Region(f.buf, {Int(0), Int(0)}, {1, 8})),
  });
}

TEST(VerifierTest, StepLimitIsNeverClean) {
  Fixture f;
  verify::VerifyResult result = verify::VerifyProgram(StepLimitProgram(f));
  EXPECT_TRUE(result.reached_step_limit);
  EXPECT_TRUE(result.diagnostics.empty()) << result.Render();
  EXPECT_FALSE(result.Clean());
  EXPECT_FALSE(result.HasErrors());
  EXPECT_NE(result.Render().find("stopped at the step limit"),
            std::string::npos)
      << result.Render();
}

// ALCOP_VERIFY's verdict: a walk cut off at the step budget fails the
// self-check like an error does, while a warning alone passes.
TEST(VerifierTest, SelfCheckRejectsAWalkStoppedAtTheStepLimit) {
  Fixture f;
  try {
    verify::VerifyOrThrow(StepLimitProgram(f), "test pass");
    ADD_FAILURE() << "a walk stopped at the step limit passed";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("test pass produced IR that could not be verified"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("stopped at the step limit"), std::string::npos)
        << what;
  }

  // Two live commit groups in one slot (V005), both waited before the
  // read: a warning and no error.
  Stmt aliased = Block({
      Alloc(f.buf),
      Sync(SyncKind::kProducerAcquire, 0, {f.buf}),
      AsyncCopy(Region(f.buf, {Int(0), Int(0)}, {1, 8}),
                Region(f.src, {Int(0), Int(0)}, {1, 8}), 0),
      Sync(SyncKind::kProducerCommit, 0, {f.buf}),
      Sync(SyncKind::kProducerAcquire, 0, {f.buf}),
      AsyncCopy(Region(f.buf, {Int(0), Int(0)}, {1, 8}),
                Region(f.src, {Int(1), Int(0)}, {1, 8}), 0),
      Sync(SyncKind::kProducerCommit, 0, {f.buf}),
      Sync(SyncKind::kConsumerWait, 0, {f.buf}),
      Sync(SyncKind::kConsumerWait, 0, {f.buf}),
      Copy(Region(f.out, {Int(0), Int(0)}, {1, 8}),
           Region(f.buf, {Int(0), Int(0)}, {1, 8})),
      Sync(SyncKind::kConsumerRelease, 0, {f.buf}),
      Sync(SyncKind::kConsumerRelease, 0, {f.buf}),
  });
  verify::VerifyResult result = verify::VerifyProgram(aliased);
  ASSERT_TRUE(HasCode(result, "V005")) << result.Render();
  ASSERT_FALSE(result.HasErrors()) << result.Render();
  EXPECT_NO_THROW(verify::VerifyOrThrow(aliased, "test pass"));
}

// ---- Zero false positives on the real compiler's output ----

class CompiledCleanTest : public ::testing::TestWithParam<size_t> {};

TEST_P(CompiledCleanTest, LoweredAndTransformedVerifyClean) {
  const schedule::GemmOp& op = workloads::BenchmarkOps()[GetParam()];
  target::GpuSpec spec = target::AmpereSpec();
  std::vector<schedule::ScheduleConfig> space = tuner::EnumerateSpace(op);
  ASSERT_FALSE(space.empty()) << op.name;
  // Prefer a deep-pipeline schedule so the verifier sees multi-stage FIFOs
  // and fused inner pipelines, not the degenerate single-stage case.
  schedule::ScheduleConfig config = space.front();
  for (const schedule::ScheduleConfig& candidate : space) {
    if (candidate.smem_stages >= 3 && candidate.reg_stages >= 2) {
      config = candidate;
      break;
    }
  }
  sim::CompiledKernel compiled = sim::CompileKernel(op, config, spec);

  verify::VerifyResult lowered = verify::VerifyProgram(compiled.kernel.stmt);
  EXPECT_TRUE(lowered.Clean()) << op.name << "\n" << lowered.Render();
  verify::VerifyResult transformed =
      verify::VerifyProgram(compiled.transformed.stmt);
  EXPECT_TRUE(transformed.Clean()) << op.name << "\n" << transformed.Render();
  EXPECT_FALSE(transformed.reached_step_limit) << op.name;
}

INSTANTIATE_TEST_SUITE_P(
    Fig10, CompiledCleanTest,
    ::testing::Range<size_t>(0, 12),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return workloads::BenchmarkOps()[info.param].name;
    });

// ---- Sync-site enumeration and mutation ----

TEST(SyncMutatorTest, ListsAndMutatesCompiledKernelSites) {
  target::GpuSpec spec = target::AmpereSpec();
  schedule::GemmOp op = schedule::MakeMatmul("mut", 64, 64, 96);
  schedule::ScheduleConfig config;
  config.tile = {.tb_m = 64, .tb_n = 64, .tb_k = 32,
                 .warp_m = 32, .warp_n = 32, .warp_k = 16};
  config.smem_stages = 3;
  config.reg_stages = 2;
  sim::CompiledKernel compiled = sim::CompileKernel(op, config, spec);

  std::vector<verify::SyncSite> sites =
      verify::ListSyncSites(compiled.transformed.stmt);
  ASSERT_GT(sites.size(), 4u);
  std::set<std::string> kinds;
  for (const verify::SyncSite& site : sites) {
    EXPECT_FALSE(site.label.empty());
    kinds.insert(ir::SyncKindName(site.stmt->sync_kind));
  }
  EXPECT_EQ(kinds.size(), 4u) << "all four primitives appear";

  // Dropping a site removes exactly one sync statement.
  ir::Stmt dropped = verify::MutateSyncSite(compiled.transformed.stmt, 0,
                                            verify::SyncMutation::kDrop);
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(verify::ListSyncSites(dropped).size(), sites.size() - 1);

  // Duplicating adds exactly one.
  ir::Stmt doubled = verify::MutateSyncSite(compiled.transformed.stmt, 0,
                                            verify::SyncMutation::kDuplicate);
  ASSERT_NE(doubled, nullptr);
  EXPECT_EQ(verify::ListSyncSites(doubled).size(), sites.size() + 1);
}

// ---- Textual round trip: parse, verify, same verdict ----

TEST(VerifierTest, ParsedProgramCarriesSpansIntoDiagnostics) {
  const char* text =
      "alloc src: global fp16[4, 8]\n"
      "alloc buf: shared fp16[2, 8]\n"
      "alloc out: global fp16[4, 8]\n"
      "buf.producer_acquire  @group0\n"
      "copy.async buf[0, 0][1, 8] <- src[0, 0][1, 8]  @group0\n"
      "buf.producer_commit  @group0\n"
      "copy out[0, 0][1, 8] <- buf[0, 0][1, 8]\n";
  ir::Stmt program = ir::ParseStmt(text);
  verify::VerifyResult result = verify::VerifyProgram(program);
  ASSERT_TRUE(HasCode(result, "V001")) << result.Render();
  for (const verify::Diagnostic& diag : result.diagnostics) {
    if (diag.code != "V001") continue;
    EXPECT_EQ(diag.span.line, 7) << result.Render();
    EXPECT_TRUE(diag.span.IsKnown());
  }
}

}  // namespace
}  // namespace alcop
