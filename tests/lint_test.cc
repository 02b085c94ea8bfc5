// Tests of the static analysis framework (src/analysis): the interval
// algebra against brute-force enumeration, a table of hand-built bad
// programs per documented L-code (mirroring verify_test's V-code table),
// diagnostic sorting and the shared JSON renderer, guard awareness, the
// resource estimator against schedule::ComputeResources, the bank model
// against the simulator's PMU counters, and the zero-findings requirement
// over every compiled Fig. 10 kernel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "analysis/bank.h"
#include "analysis/bounds.h"
#include "analysis/context.h"
#include "analysis/index_mutator.h"
#include "analysis/interval.h"
#include "analysis/pass.h"
#include "analysis/resources.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "ir/stmt.h"
#include "perfmodel/analytical.h"
#include "schedule/lower.h"
#include "sim/executor.h"
#include "sim/launch.h"
#include "sim/pmu.h"
#include "support/check.h"
#include "support/rng.h"
#include "target/gpu_spec.h"
#include "tuner/space.h"
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

bool HasCode(const analysis::LintResult& result, const std::string& code) {
  for (const verify::Diagnostic& diag : result.diagnostics) {
    if (diag.code == code) return true;
  }
  return false;
}

size_t CountCode(const analysis::LintResult& result, const std::string& code) {
  size_t n = 0;
  for (const verify::Diagnostic& diag : result.diagnostics) {
    n += diag.code == code;
  }
  return n;
}

// ---- Interval algebra vs. brute force ----

// Random expression over up to three loop variables; floordiv/floormod
// right sides are drawn as positive constants so EvalInterval can bound
// them (non-constant divisors are exercised separately).
Expr RandomExpr(Rng& rng, const std::vector<Var>& vars, int depth) {
  if (depth == 0 || rng.UniformInt(0, 3) == 0) {
    if (rng.UniformInt(0, 1) == 0) {
      return vars[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(vars.size()) - 1))];
    }
    return Int(rng.UniformInt(-6, 6));
  }
  ExprKind kinds[] = {ExprKind::kAdd,      ExprKind::kSub,
                      ExprKind::kMul,      ExprKind::kFloorDiv,
                      ExprKind::kFloorMod, ExprKind::kMin,
                      ExprKind::kMax,      ExprKind::kLT,
                      ExprKind::kLE,       ExprKind::kEQ,
                      ExprKind::kAnd,      ExprKind::kOr};
  ExprKind kind = kinds[rng.UniformInt(0, 11)];
  Expr a = RandomExpr(rng, vars, depth - 1);
  Expr b;
  if (kind == ExprKind::kFloorDiv || kind == ExprKind::kFloorMod) {
    b = Int(rng.UniformInt(1, 5));
  } else {
    b = RandomExpr(rng, vars, depth - 1);
  }
  return Binary(kind, std::move(a), std::move(b));
}

TEST(IntervalTest, RandomExpressionsAreSoundAndExactWhenClaimed) {
  Var i = MakeVar("i");
  Var j = MakeVar("j");
  Var k = MakeVar("k");
  std::vector<Var> vars = {i, j, k};
  std::vector<analysis::VarRange> ranges = {
      {i.get(), 5}, {j.get(), 4}, {k.get(), 3}};

  size_t evaluated = 0;
  size_t exact = 0;
  for (uint64_t seed = 0; seed < 3000; ++seed) {
    Rng rng(seed);
    Expr e = RandomExpr(rng, vars, 4);
    analysis::Interval iv;
    if (!analysis::EvalInterval(e, ranges, &iv)) continue;
    ++evaluated;

    // Brute-force attained set over the rectangular nest.
    std::set<int64_t> attained;
    std::vector<VarBinding> env = {{i.get(), 0}, {j.get(), 0}, {k.get(), 0}};
    for (int64_t vi = 0; vi < 5; ++vi) {
      for (int64_t vj = 0; vj < 4; ++vj) {
        for (int64_t vk = 0; vk < 3; ++vk) {
          env[0].value = vi;
          env[1].value = vj;
          env[2].value = vk;
          attained.insert(Evaluate(e, env));
        }
      }
    }
    ASSERT_FALSE(attained.empty());
    // Containment is unconditional.
    EXPECT_GE(*attained.begin(), iv.lo) << ToString(e);
    EXPECT_LE(*attained.rbegin(), iv.hi) << ToString(e);
    if (!iv.exact) continue;
    ++exact;
    // Exactness claims the attained set IS the arithmetic progression.
    std::set<int64_t> progression;
    ASSERT_GE(iv.stride, 1) << ToString(e);
    for (int64_t v = iv.lo; v <= iv.hi; v += iv.stride) progression.insert(v);
    EXPECT_EQ(attained, progression) << ToString(e);
  }
  EXPECT_GT(evaluated, 2000u);
  EXPECT_GT(exact, 500u) << "the algebra should prove exactness often";
}

TEST(IntervalTest, AffineOffsetsStayExact) {
  // The canonical lowered offset shape: tb * 64 + w * 16 + i.
  Var tb = MakeVar("tb");
  Var w = MakeVar("w");
  Var i = MakeVar("i");
  std::vector<analysis::VarRange> ranges = {
      {tb.get(), 4}, {w.get(), 4}, {i.get(), 16}};
  Expr offset = Add(Add(Mul(tb, 64), Mul(w, 16)), i);
  analysis::Interval iv;
  ASSERT_TRUE(analysis::EvalInterval(offset, ranges, &iv));
  EXPECT_TRUE(iv.exact);
  EXPECT_EQ(iv.lo, 0);
  EXPECT_EQ(iv.hi, 255);
  EXPECT_EQ(iv.stride, 1);

  // The rolling slot index: (ko) % 3 over a long loop covers 0..2.
  Var ko = MakeVar("ko");
  std::vector<analysis::VarRange> ko_range = {{ko.get(), 64}};
  ASSERT_TRUE(analysis::EvalInterval(FloorMod(ko, 3), ko_range, &iv));
  EXPECT_TRUE(iv.exact);
  EXPECT_EQ(iv.lo, 0);
  EXPECT_EQ(iv.hi, 2);
  EXPECT_EQ(iv.stride, 1);
}

// ---- Bad-program table: each row one documented L-code ----

struct Fixture {
  Buffer src = MakeBuffer("src", MemScope::kGlobal, {8, 8});
  Buffer buf = MakeBuffer("buf", MemScope::kShared, {2, 8});
  Buffer out = MakeBuffer("out", MemScope::kGlobal, {8, 8});
};

// L001: constant offset provably past the shared buffer's extent.
TEST(LintTest, ProvableOutOfBoundsIsL001) {
  Fixture f;
  Stmt program = Block({
      Alloc(f.buf),
      Copy(Region(f.buf, {Int(1), Int(0)}, {2, 8}),  // rows 1..2 of a [2,8]
           Region(f.src, {Int(0), Int(0)}, {2, 8})),
  });
  analysis::LintResult result = analysis::LintProgram(program);
  EXPECT_TRUE(HasCode(result, "L001")) << result.Render();
  EXPECT_TRUE(result.HasErrors());
  EXPECT_TRUE(result.HasBoundsError());
}

// L001 through a loop: the interval of ko*2 over ko in 0..3 tops out at 6,
// and rows 6..7 of an [8,8] fit — but a [2,8] destination does not.
TEST(LintTest, LoopCarriedOutOfBoundsIsL001) {
  Fixture f;
  Var ko = MakeVar("ko");
  Stmt program = Block({
      Alloc(f.buf),
      For(ko, 4, ForKind::kSerial,
          Copy(Region(f.buf, {ko, Int(0)}, {1, 8}),  // ko=2,3 overflow
               Region(f.src, {ko, Int(0)}, {1, 8}))),
  });
  analysis::LintResult result = analysis::LintProgram(program);
  EXPECT_TRUE(HasCode(result, "L001")) << result.Render();
  EXPECT_EQ(CountCode(result, "L001"), 1u) << "one finding per site";
}

// Guard awareness: the same overflowing offset under the pipeline
// transformation's tail-clipping guard is clean — only the unguarded
// variant is a provable violation.
TEST(LintTest, TailClippingGuardSuppressesFalsePositive) {
  Fixture f;
  Var ko = MakeVar("ko");
  auto body = [&] {
    return Copy(Region(f.buf, {ko, Int(0)}, {1, 8}),
                Region(f.src, {ko, Int(0)}, {1, 8}));
  };
  Stmt guarded = Block({
      Alloc(f.buf),
      For(ko, 4, ForKind::kSerial,
          IfThenElse(Binary(ExprKind::kLT, ko, Int(2)), body())),
  });
  analysis::LintResult clean = analysis::LintProgram(guarded);
  EXPECT_FALSE(HasCode(clean, "L001")) << clean.Render();
  EXPECT_FALSE(clean.HasBoundsError());

  Stmt unguarded = Block({
      Alloc(f.buf),
      For(ko, 4, ForKind::kSerial, body()),
  });
  EXPECT_TRUE(analysis::LintProgram(unguarded).HasBoundsError());

  // An else-branch is the negated guard: routing the copy through the
  // *else* of (ko >= 2) keeps it equally clean.
  Stmt negated = Block({
      Alloc(f.buf),
      For(ko, 4, ForKind::kSerial,
          IfThenElse(Binary(ExprKind::kGE, ko, Int(2)), Barrier(), body())),
  });
  EXPECT_FALSE(analysis::LintProgram(negated).HasBoundsError());
}

// L002: an offset no loop binds cannot be decided statically.
TEST(LintTest, UnboundOffsetVariableIsL002) {
  Fixture f;
  Var ghost = MakeVar("ghost");
  Stmt program = Block({
      Alloc(f.buf),
      Copy(Region(f.buf, {ghost, Int(0)}, {1, 8}),
           Region(f.src, {Int(0), Int(0)}, {1, 8})),
  });
  analysis::LintResult result = analysis::LintProgram(program);
  EXPECT_TRUE(HasCode(result, "L002")) << result.Render();
  EXPECT_FALSE(result.HasBoundsError()) << "unprovable is not provably OOB";
}

// L002: a non-affine offset over a nest too large to enumerate within the
// configured budget degrades to a may-warning instead of a verdict.
TEST(LintTest, EnumerationBudgetOverflowIsL002) {
  Buffer wide = MakeBuffer("wide", MemScope::kGlobal, {512});
  Buffer dst = MakeBuffer("dst", MemScope::kShared, {512});
  Var a = MakeVar("a");
  Var b = MakeVar("b");
  Stmt program = Block({
      Alloc(dst),
      For(a, 40, ForKind::kSerial,
          For(b, 40, ForKind::kSerial,
              Copy(Region(dst, {Min(Mul(a, 16), Mul(b, 16))}, {1}),
                   Region(wide, {Int(0)}, {1})))),
  });
  analysis::LintOptions options;
  options.max_enumeration = 1000;  // 40*40 = 1600 combos exceeds this
  analysis::LintResult result = analysis::LintProgram(program, options);
  EXPECT_TRUE(HasCode(result, "L002")) << result.Render();
}

// L003: a read of a region an in-flight (committed, never waited-on)
// async write covers — the region-level generalization of V001.
TEST(LintTest, ReadOfInFlightRegionIsL003) {
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
  analysis::LintResult result = analysis::LintProgram(program);
  EXPECT_TRUE(HasCode(result, "L003")) << result.Render();
  EXPECT_TRUE(result.HasErrors());

  // Reading a disjoint region of the same buffer is fine: region
  // granularity is exactly what the slot-granular verifier cannot see.
  Stmt disjoint = Block({
      Alloc(f.buf),
      Sync(SyncKind::kProducerAcquire, 0, {f.buf}),
      AsyncCopy(Region(f.buf, {Int(0), Int(0)}, {1, 4}),
                Region(f.src, {Int(0), Int(0)}, {1, 4}), 0),
      Sync(SyncKind::kProducerCommit, 0, {f.buf}),
      Copy(Region(f.out, {Int(0), Int(0)}, {1, 4}),
           Region(f.buf, {Int(1), Int(4)}, {1, 4})),
  });
  EXPECT_FALSE(HasCode(analysis::LintProgram(disjoint), "L003"));

  // And a consumer_wait promotes the write, making the read legal.
  Stmt waited = Block({
      Alloc(f.buf),
      Sync(SyncKind::kProducerAcquire, 0, {f.buf}),
      AsyncCopy(Region(f.buf, {Int(0), Int(0)}, {1, 8}),
                Region(f.src, {Int(0), Int(0)}, {1, 8}), 0),
      Sync(SyncKind::kProducerCommit, 0, {f.buf}),
      Sync(SyncKind::kConsumerWait, 0, {f.buf}),
      Copy(Region(f.out, {Int(0), Int(0)}, {1, 8}),
           Region(f.buf, {Int(0), Int(0)}, {1, 8})),
  });
  EXPECT_FALSE(HasCode(analysis::LintProgram(waited), "L003"));
}

// L004: two live commit groups partially aliasing one region (the
// region-level rolling-index symptom).
TEST(LintTest, OverlappingLiveWritesAreL004) {
  Fixture f;
  Stmt program = Block({
      Alloc(f.buf),
      Sync(SyncKind::kProducerAcquire, 0, {f.buf}),
      AsyncCopy(Region(f.buf, {Int(0), Int(0)}, {1, 6}),
                Region(f.src, {Int(0), Int(0)}, {1, 6}), 0),
      Sync(SyncKind::kProducerCommit, 0, {f.buf}),
      Sync(SyncKind::kProducerAcquire, 0, {f.buf}),
      AsyncCopy(Region(f.buf, {Int(0), Int(4)}, {1, 4}),  // cols 4..7 vs 0..5
                Region(f.src, {Int(0), Int(0)}, {1, 4}), 0),
      Sync(SyncKind::kProducerCommit, 0, {f.buf}),
  });
  analysis::LintResult result = analysis::LintProgram(program);
  EXPECT_TRUE(HasCode(result, "L004")) << result.Render();

  // Disjoint slots (the correct rolling pattern) raise nothing.
  Stmt rolling = Block({
      Alloc(f.buf),
      Sync(SyncKind::kProducerAcquire, 0, {f.buf}),
      AsyncCopy(Region(f.buf, {Int(0), Int(0)}, {1, 8}),
                Region(f.src, {Int(0), Int(0)}, {1, 8}), 0),
      Sync(SyncKind::kProducerCommit, 0, {f.buf}),
      Sync(SyncKind::kProducerAcquire, 0, {f.buf}),
      AsyncCopy(Region(f.buf, {Int(1), Int(0)}, {1, 8}),
                Region(f.src, {Int(1), Int(0)}, {1, 8}), 0),
      Sync(SyncKind::kProducerCommit, 0, {f.buf}),
  });
  EXPECT_FALSE(HasCode(analysis::LintProgram(rolling), "L004"));
}

// A later commit group's write that fully contains an earlier group's
// live write takes the region over: the earlier write is retired, so the
// later group writing the region again aliases nothing (no second L004),
// and a read before the later group's wait races with the later group.
TEST(LintTest, FullOverwriteTransfersTheRegionToTheLaterGroup) {
  const char* text =
      "alloc src: global fp16[4, 8]\n"
      "alloc buf: shared fp16[2, 8]\n"
      "alloc out: global fp16[4, 8]\n"
      "buf.producer_acquire  @group0\n"
      "copy.async buf[0, 0][1, 8] <- src[0, 0][1, 8]  @group0\n"
      "buf.producer_commit  @group0\n"
      "buf.producer_acquire  @group0\n"
      "copy.async buf[0, 0][1, 8] <- src[1, 0][1, 8]  @group0\n"
      "copy.async buf[0, 0][1, 8] <- src[2, 0][1, 8]  @group0\n"
      "buf.producer_commit  @group0\n"
      "buf.consumer_wait  @group0\n"
      "copy out[0, 0][1, 8] <- buf[0, 0][1, 8]\n"
      "buf.consumer_release  @group0\n"
      "buf.consumer_wait  @group0\n"
      "buf.consumer_release  @group0\n";
  analysis::LintResult result = analysis::LintProgram(ir::ParseStmt(text));
  std::vector<int> l004_lines;
  const verify::Diagnostic* race = nullptr;
  for (const verify::Diagnostic& diag : result.diagnostics) {
    if (diag.code == "L004") l004_lines.push_back(diag.span.line);
    if (diag.code == "L003") race = &diag;
  }
  EXPECT_EQ(l004_lines, std::vector<int>{8}) << result.Render();
  ASSERT_NE(race, nullptr) << result.Render();
  EXPECT_EQ(race->span.line, 12) << result.Render();
  ASSERT_EQ(race->notes.size(), 1u) << result.Render();
  EXPECT_NE(race->notes[0].find("by commit group 1 "), std::string::npos)
      << result.Render();
}

// A program that outlasts the race walk's step budget is never reported
// clean: the 2100 x 2100 fill nest takes more than the 4,194,304
// statement visits of the budget, so the walk stops before the unwaited
// read after it.
TEST(LintTest, StepLimitIsNeverClean) {
  Fixture f;
  Var i = MakeVar("i");
  Var j = MakeVar("j");
  Stmt program = Block({
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
  analysis::LintResult result = analysis::LintProgram(program);
  EXPECT_TRUE(result.diagnostics.empty()) << result.Render();
  EXPECT_FALSE(result.Clean());
  EXPECT_FALSE(result.HasErrors());
  EXPECT_NE(result.Render().find("stopped at the step limit"),
            std::string::npos)
      << result.Render();
}

// L005: an unswizzled strided shared access whose geometric conflict
// degree exceeds the calibrated model factor.
TEST(LintTest, StridedUnswizzledAccessIsL005) {
  Buffer shared = MakeBuffer("A_shared", MemScope::kShared, {64, 64});
  Buffer reg = MakeBuffer("A_reg", MemScope::kRegister, {32, 16});
  Stmt program = Block({
      Alloc(shared),
      Alloc(reg),
      Copy(Region(reg, {Int(0), Int(0)}, {32, 16}),
           Region(shared, {Int(0), Int(0)}, {32, 16})),
  });
  analysis::LintOptions options;
  options.swizzle = false;
  analysis::LintResult result = analysis::LintProgram(program, options);
  EXPECT_TRUE(HasCode(result, "L005")) << result.Render();
  ASSERT_TRUE(result.bank.has_value());
  // 32 lanes stepping a 128-byte row stride all land in bank 0.
  EXPECT_EQ(result.bank->max_degree, 32);
  EXPECT_DOUBLE_EQ(result.bank->sim_divisor,
                   target::AmpereSpec().bank_conflict_factor);

  // The swizzled layout removes both the finding and the divisor.
  analysis::LintResult swizzled = analysis::LintProgram(program);
  EXPECT_FALSE(HasCode(swizzled, "L005"));
  ASSERT_TRUE(swizzled.bank.has_value());
  EXPECT_EQ(swizzled.bank->max_degree, 1);
  EXPECT_DOUBLE_EQ(swizzled.bank->sim_divisor, 1.0);
}

TEST(LintTest, ConflictDegreeGeometry) {
  // fp16 [64, 32]: row stride 64 B -> lanes alternate banks 0/16, 16
  // distinct words per bank.
  Buffer b32 = MakeBuffer("b32", MemScope::kShared, {64, 32});
  EXPECT_EQ(analysis::ConflictDegree(
                Region(b32, {Int(0), Int(0)}, {32, 8})),
            16);
  // fp16 [64, 64]: row stride 128 B -> all 32 lanes in bank 0.
  Buffer b64 = MakeBuffer("b64", MemScope::kShared, {64, 64});
  EXPECT_EQ(analysis::ConflictDegree(
                Region(b64, {Int(0), Int(0)}, {32, 8})),
            32);
  // A contiguous row: consecutive lanes share or neighbor words,
  // broadcast/parallel, conflict-free.
  EXPECT_EQ(analysis::ConflictDegree(
                Region(b64, {Int(0), Int(0)}, {1, 32})),
            1);
  // Single element: trivially conflict-free.
  EXPECT_EQ(analysis::ConflictDegree(
                Region(b64, {Int(0), Int(0)}, {1, 1})),
            1);
}

// L006: a threadblock whose resources cannot fit one SM.
TEST(LintTest, OversizedThreadblockIsL006) {
  Buffer huge = MakeBuffer("huge", MemScope::kShared, {1024, 1024});  // 2 MB
  Buffer out = MakeBuffer("out", MemScope::kGlobal, {1024, 1024});
  Stmt program = Block({
      Alloc(huge),
      Copy(Region(out, {Int(0), Int(0)}, {1, 8}),
           Region(huge, {Int(0), Int(0)}, {1, 8})),
  });
  analysis::LintResult result = analysis::LintProgram(program);
  EXPECT_TRUE(HasCode(result, "L006")) << result.Render();
  ASSERT_TRUE(result.feasibility.has_value());
  EXPECT_FALSE(result.feasibility->feasible);
  EXPECT_NE(result.feasibility->reason.find("threadblock does not fit"),
            std::string::npos)
      << result.feasibility->reason;
}

// ---- Guard-aware execution counting ----

TEST(LintTest, CountExecutionsHonorsGuards) {
  Fixture f;
  Var ko = MakeVar("ko");
  Var w = MakeVar("w");
  Stmt program = Block({
      Alloc(f.buf),
      For(w, 2, ForKind::kWarp,
          For(ko, 4, ForKind::kSerial,
              IfThenElse(Binary(ExprKind::kLT, Add(ko, 1), Int(4)),
                         Copy(Region(f.buf, {Int(0), Int(0)}, {1, 8}),
                              Region(f.src, {ko, Int(0)}, {1, 8}))))),
  });
  analysis::AnalysisContext ctx(program, {});
  const analysis::Site* copy_site = nullptr;
  for (const analysis::Site& site : ctx.sites()) {
    if (site.stmt->kind == StmtKind::kCopy) copy_site = &site;
  }
  ASSERT_NE(copy_site, nullptr);
  // ko in 0..3 guarded by ko+1 < 4 runs 3 of 4 iterations, times 2 warps.
  EXPECT_EQ(ctx.CountExecutions(*copy_site), 6);
  EXPECT_EQ(ctx.NumWarps(), 2);
}

// ---- Diagnostic ordering and the shared JSON renderer ----

TEST(DiagnosticSortTest, SortsByLineColumnCodeAndStaysStable) {
  std::vector<verify::Diagnostic> diags;
  auto push = [&](int line, int col, const char* code, const char* msg) {
    verify::Diagnostic d;
    d.code = code;
    d.message = msg;
    d.span = {line, col};
    diags.push_back(d);
  };
  push(7, 2, "L003", "third");
  push(3, 9, "L001", "second");
  push(3, 1, "V006", "first-b");
  push(0, 0, "L006", "spanless");
  push(3, 1, "L001", "first-a");
  push(7, 2, "L003", "third-dup");

  verify::SortDiagnostics(&diags);
  std::vector<std::string> order;
  for (const verify::Diagnostic& d : diags) order.push_back(d.message);
  EXPECT_EQ(order,
            (std::vector<std::string>{"spanless", "first-a", "first-b",
                                      "second", "third", "third-dup"}));
}

TEST(DiagnosticJsonTest, GoldenSchema) {
  std::vector<verify::Diagnostic> diags;
  verify::Diagnostic a;
  a.severity = verify::Severity::kError;
  a.code = "L001";
  a.message = "provable out-of-bounds access to 'buf'";
  a.path = "for ko / copy(buf)";
  a.span = {12, 5};
  a.notes.push_back("note \"quoted\"");
  diags.push_back(a);
  verify::Diagnostic b;
  b.severity = verify::Severity::kWarning;
  b.code = "L002";
  b.message = "cannot prove bounds";
  diags.push_back(b);

  const char* golden =
      "[\n"
      "  {\"severity\": \"error\", \"code\": \"L001\", \"line\": 12, "
      "\"column\": 5, \"message\": \"provable out-of-bounds access to "
      "'buf'\", \"path\": \"for ko / copy(buf)\", \"notes\": [\"note "
      "\\\"quoted\\\"\"]},\n"
      "  {\"severity\": \"warning\", \"code\": \"L002\", \"line\": 0, "
      "\"column\": 0, \"message\": \"cannot prove bounds\", \"path\": \"\", "
      "\"notes\": []}\n"
      "]";
  EXPECT_EQ(verify::DiagnosticsToJson(diags), golden);
  EXPECT_EQ(verify::DiagnosticsToJson({}), "[]");
}

TEST(LintTest, ParsedProgramCarriesSpansIntoDiagnostics) {
  const char* text =
      "alloc src: global fp16[4, 8]\n"
      "alloc buf: shared fp16[2, 8]\n"
      "copy buf[1, 0][2, 8] <- src[0, 0][2, 8]\n";
  ir::Stmt program = ir::ParseStmt(text);
  analysis::LintResult result = analysis::LintProgram(program);
  ASSERT_TRUE(HasCode(result, "L001")) << result.Render();
  for (const verify::Diagnostic& diag : result.diagnostics) {
    if (diag.code != "L001") continue;
    EXPECT_EQ(diag.span.line, 3) << result.Render();
    EXPECT_TRUE(diag.span.IsKnown());
    EXPECT_NE(diag.Render().find("line 3:"), std::string::npos);
  }
  // The rendered block names the buffer, scope and the offending range.
  EXPECT_NE(result.Render().find("'buf' (shared scope)"), std::string::npos)
      << result.Render();
}

TEST(LintTest, DiagnosticsAreSortedBySourcePosition) {
  const char* text =
      "alloc src: global fp16[4, 8]\n"
      "alloc buf: shared fp16[2, 8]\n"
      "alloc out: global fp16[4, 8]\n"
      "buf.producer_acquire  @group0\n"
      "copy.async buf[0, 0][1, 8] <- src[0, 0][1, 8]  @group0\n"
      "buf.producer_commit  @group0\n"
      "copy out[0, 0][1, 8] <- buf[0, 0][1, 8]\n"
      "copy buf[1, 0][2, 8] <- src[0, 0][2, 8]\n";
  ir::Stmt program = ir::ParseStmt(text);
  analysis::LintResult result = analysis::LintProgram(program);
  // L003 (line 7, the racy read) must precede L001 (line 8, the OOB
  // write) regardless of the pass order that produced them.
  ASSERT_TRUE(HasCode(result, "L003")) << result.Render();
  ASSERT_TRUE(HasCode(result, "L001")) << result.Render();
  int last_line = 0;
  for (const verify::Diagnostic& diag : result.diagnostics) {
    EXPECT_GE(diag.span.line, last_line) << result.Render();
    last_line = diag.span.line;
  }
}

// ---- Resource estimator vs. the schedule-arithmetic path ----

TEST(LintTest, ConfigFeasibilityMirrorsSimulatorVerdict) {
  target::GpuSpec spec = target::AmpereSpec();
  schedule::GemmOp op = schedule::MakeMatmul("feas", 512, 512, 512);

  // An occupancy-infeasible config: 256x256 tiles at 4 shared stages want
  // 256 KB of shared memory. The simulator, the analytical model and the
  // interpreter (which keeps its own occupancy check) all give the one
  // verdict's reason.
  schedule::ScheduleConfig big;
  big.tile = {.tb_m = 256, .tb_n = 256, .tb_k = 64,
              .warp_m = 64, .warp_n = 64, .warp_k = 16};
  big.smem_stages = 4;
  big.reg_stages = 2;
  schedule::StaticFeasibility verdict =
      schedule::CheckFeasibility(op, big, spec);
  EXPECT_FALSE(verdict.feasible);
  EXPECT_EQ(verdict.reason.rfind("threadblock does not fit: ", 0), 0u);
  sim::KernelTiming timing = sim::CompileAndSimulate(op, big, spec);
  EXPECT_FALSE(timing.feasible);
  EXPECT_EQ(verdict.reason, timing.reason) << "verbatim string agreement";
  EXPECT_EQ(verdict.reason, perfmodel::AnalyticalModel(op, big, spec).reason);
  EXPECT_EQ(verdict.reason,
            sim::InterpretKernel(sim::CompileKernel(op, big, spec), spec)
                .reason);

  // An invalid tiling is rejected with the same wording everywhere too
  // (the interpreter needs a compiled kernel, which an invalid tiling
  // cannot produce).
  schedule::ScheduleConfig bad;
  bad.tile = {.tb_m = 48, .tb_n = 32, .tb_k = 32,
              .warp_m = 32, .warp_n = 16, .warp_k = 16};
  schedule::StaticFeasibility invalid =
      schedule::CheckFeasibility(op, bad, spec);
  EXPECT_FALSE(invalid.feasible);
  EXPECT_EQ(invalid.reason.rfind("invalid schedule: ", 0), 0u);
  EXPECT_EQ(invalid.reason, sim::CompileAndSimulate(op, bad, spec).reason);
  EXPECT_EQ(invalid.reason, perfmodel::AnalyticalModel(op, bad, spec).reason);

  // A known-good config agrees on feasibility as well.
  schedule::ScheduleConfig good;
  good.tile = {.tb_m = 64, .tb_n = 64, .tb_k = 32,
               .warp_m = 32, .warp_n = 32, .warp_k = 16};
  good.smem_stages = 2;
  EXPECT_TRUE(schedule::CheckFeasibility(op, good, spec).feasible);
  EXPECT_TRUE(sim::CompileAndSimulate(op, good, spec).feasible);
  EXPECT_TRUE(perfmodel::AnalyticalModel(op, good, spec).feasible);
}

// ---- Zero findings over every compiled Fig. 10 kernel, and the
// IR-derived resource estimate reproduces the schedule arithmetic ----

class LintCleanTest : public ::testing::TestWithParam<size_t> {};

TEST_P(LintCleanTest, CompiledKernelsLintClean) {
  const schedule::GemmOp& op = workloads::BenchmarkOps()[GetParam()];
  target::GpuSpec spec = target::AmpereSpec();
  std::vector<schedule::ScheduleConfig> space = tuner::EnumerateSpace(op);
  ASSERT_FALSE(space.empty()) << op.name;
  schedule::ScheduleConfig config = space.front();
  for (const schedule::ScheduleConfig& candidate : space) {
    if (candidate.smem_stages >= 3 && candidate.reg_stages >= 2) {
      config = candidate;
      break;
    }
  }
  sim::CompiledKernel compiled = sim::CompileKernel(op, config, spec);

  analysis::LintOptions options;
  options.swizzle = config.swizzle;
  analysis::LintResult result =
      analysis::LintProgram(compiled.transformed.stmt, options);
  EXPECT_TRUE(result.Clean()) << op.name << "\n" << result.Render();

  ASSERT_TRUE(result.feasibility.has_value()) << op.name;
  EXPECT_TRUE(result.feasibility->feasible) << op.name;

  // When every buffer pipelines as scheduled, the IR walk must reproduce
  // schedule::ComputeResources exactly (the allocations carry the stage
  // expansion; warp loops carry the warp count).
  bool fully_pipelined = true;
  for (const pipeline::DetectionEntry& entry : compiled.detection.entries) {
    fully_pipelined = fully_pipelined && entry.eligible;
  }
  target::ThreadblockResources expected =
      schedule::ComputeResources(compiled.kernel.op, compiled.kernel.config);
  if (fully_pipelined) {
    EXPECT_EQ(result.feasibility->resources.smem_bytes, expected.smem_bytes)
        << op.name;
    EXPECT_EQ(result.feasibility->resources.reg_bytes, expected.reg_bytes)
        << op.name;
  }
  EXPECT_EQ(result.feasibility->resources.warps, expected.warps) << op.name;

  // The lowered (pre-transform) kernel is equally clean.
  analysis::LintResult lowered =
      analysis::LintProgram(compiled.kernel.stmt, options);
  EXPECT_FALSE(lowered.HasErrors()) << op.name << "\n" << lowered.Render();
}

INSTANTIATE_TEST_SUITE_P(
    Fig10, LintCleanTest, ::testing::Range<size_t>(0, 12),
    [](const ::testing::TestParamInfo<size_t>& info) {
      return workloads::BenchmarkOps()[info.param].name;
    });

// ---- Bank model vs. the simulator's PMU counters ----

TEST(BankCrossCheckTest, PredictedLdsTrafficMatchesPmu) {
  target::GpuSpec spec = target::AmpereSpec();
  schedule::GemmOp op = schedule::MakeMatmul("bank", 2048, 2048, 2048);
  schedule::ScheduleConfig config;
  config.tile = {.tb_m = 128, .tb_n = 128, .tb_k = 32,
                 .warp_m = 64, .warp_n = 64, .warp_k = 16};
  config.smem_stages = 3;
  config.reg_stages = 2;
  sim::CompiledKernel compiled = sim::CompileKernel(op, config, spec);

  analysis::LintOptions options;
  options.swizzle = config.swizzle;
  analysis::LintResult result =
      analysis::LintProgram(compiled.transformed.stmt, options);
  ASSERT_TRUE(result.bank.has_value());

  sim::KernelPmu pmu;
  sim::KernelTiming timing = sim::InterpretKernel(compiled, spec, &pmu);
  ASSERT_TRUE(timing.feasible);
  ASSERT_TRUE(pmu.collected);

  // Scale the steady-state batch counters to the whole launch exactly the
  // way the PMU conservation test does.
  int64_t total = compiled.kernel.TotalThreadblocks();
  int64_t per_batch =
      static_cast<int64_t>(timing.threadblocks_per_sm) * spec.num_sms;
  int64_t wave_total = std::min(total, per_batch);
  double wave_tbs = static_cast<double>(std::min<int64_t>(
      timing.threadblocks_per_sm,
      (wave_total + spec.num_sms - 1) / spec.num_sms));
  double pmu_kernel_lds =
      pmu.batch.lds_read_bytes / wave_tbs * static_cast<double>(total);

  // The static prediction sums region bytes times guard-aware execution
  // counts over the whole nest — prologue fetches and clipped tails
  // included — so it must match the simulator's counter exactly.
  EXPECT_NEAR(result.bank->predicted_lds_read_bytes, pmu_kernel_lds,
              1e-6 * pmu_kernel_lds);
}

TEST(BankCrossCheckTest, SwizzleDivisorMatchesSimulatedLdsSlowdown) {
  target::GpuSpec spec = target::AmpereSpec();
  schedule::GemmOp op = schedule::MakeMatmul("bank", 1024, 1024, 1024);
  schedule::ScheduleConfig config;
  config.tile = {.tb_m = 128, .tb_n = 128, .tb_k = 32,
                 .warp_m = 64, .warp_n = 64, .warp_k = 16};
  config.smem_stages = 2;
  config.reg_stages = 2;

  auto lds_cycles = [&](bool swizzle) {
    schedule::ScheduleConfig c = config;
    c.swizzle = swizzle;
    sim::CompiledKernel compiled = sim::CompileKernel(op, c, spec);
    sim::KernelPmu pmu;
    sim::KernelTiming timing = sim::InterpretKernel(compiled, spec, &pmu);
    EXPECT_TRUE(timing.feasible);
    return pmu.batch.lds_active_cycles;
  };
  auto divisor = [&](bool swizzle) {
    schedule::ScheduleConfig c = config;
    c.swizzle = swizzle;
    sim::CompiledKernel compiled = sim::CompileKernel(op, c, spec);
    analysis::LintOptions options;
    options.swizzle = swizzle;
    analysis::LintResult result =
        analysis::LintProgram(compiled.transformed.stmt, options);
    EXPECT_TRUE(result.bank.has_value());
    return result.bank->sim_divisor;
  };

  // The simulator charges the LDS pipe exactly bank_conflict_factor times
  // longer without the swizzled layout; the analyzer's reported divisor
  // predicts that ratio, and its geometric degree upper-bounds it.
  double ratio = lds_cycles(false) / lds_cycles(true);
  double predicted = divisor(false) / divisor(true);
  EXPECT_NEAR(ratio, predicted, 1e-9);
  EXPECT_NEAR(predicted, spec.bank_conflict_factor, 1e-12);
}

// ---- Index-mutation fuzz differential ----
//
// For a sample of (statement, region, dim) offset sites of compiled
// kernels, each index mutation must drive the static bounds checker and
// the executor's dynamic region checks to the same verdict: the mutant
// either carries a provable L001 *and* throws at runtime, or neither.
// Async-semantics checking is off so index mutations are judged on
// bounds alone (a doubled slot index can also be a sync race, which is
// the race pass's business, not the bounds checker's).

TEST(BoundsMutationDifferential, StaticVerdictMatchesExecutor) {
  const target::GpuSpec spec = target::AmpereSpec();
  struct Case {
    int64_t k;
    int smem_stages;
    int reg_stages;
    bool inner_fusion;
  };
  const Case cases[] = {
      {96, 3, 2, true},
      {96, 3, 2, false},
      {64, 2, 2, true},
      {64, 2, 2, false},
  };
  const analysis::IndexMutation kMutations[] = {
      analysis::IndexMutation::kPlusOne,
      analysis::IndexMutation::kMinusOne,
      analysis::IndexMutation::kPlusExtent,
      analysis::IndexMutation::kScaleTwo,
      analysis::IndexMutation::kSetZero,
  };

  Rng data_rng(0xB0047);
  int total = 0;
  int static_oob = 0;
  for (const Case& c : cases) {
    schedule::GemmOp op = schedule::MakeMatmul("boundsfuzz", 32, 32, c.k);
    schedule::ScheduleConfig config;
    config.tile = {.tb_m = 32, .tb_n = 32, .tb_k = 32,
                   .warp_m = 16, .warp_n = 16, .warp_k = 16};
    config.smem_stages = c.smem_stages;
    config.reg_stages = c.reg_stages;
    config.inner_fusion = c.inner_fusion;
    sim::CompiledKernel compiled = sim::CompileKernel(op, config, spec);
    const ir::Stmt& program = compiled.transformed.stmt;

    ASSERT_FALSE(analysis::LintProgram(program).HasBoundsError());

    std::vector<float> a(static_cast<size_t>(op.m * op.k));
    std::vector<float> b(static_cast<size_t>(op.n * op.k));
    for (float& v : a) v = static_cast<float>(data_rng.Uniform(-1, 1));
    for (float& v : b) v = static_cast<float>(data_rng.Uniform(-1, 1));

    std::vector<analysis::IndexSite> sites =
        analysis::ListIndexSites(program);
    ASSERT_GT(sites.size(), 10u);
    for (size_t s = 0; s < sites.size(); ++s) {
      for (analysis::IndexMutation mutation : kMutations) {
        ir::Stmt mutant = analysis::MutateIndexSite(program, sites[s],
                                                    mutation);
        ++total;
        bool static_fails =
            analysis::LintProgram(mutant).HasBoundsError();
        static_oob += static_fails;
        bool dynamic_fails = false;
        try {
          sim::Executor exec({/*check_async_semantics=*/false});
          exec.Bind(compiled.kernel.a, a);
          exec.Bind(compiled.kernel.b, b);
          exec.Run(mutant);
        } catch (const CheckError&) {
          dynamic_fails = true;
        }
        EXPECT_EQ(static_fails, dynamic_fails)
            << analysis::IndexMutationName(mutation) << " at site " << s
            << " (k=" << c.k << " smem=" << c.smem_stages
            << " reg=" << c.reg_stages
            << (c.inner_fusion ? " fused" : " recursive") << ")\n"
            << analysis::LintProgram(mutant).Render();
      }
    }
  }
  EXPECT_GE(total, 200) << "differential must cover at least 200 mutants";
  EXPECT_GT(static_oob, 0) << "some mutants must be provably OOB";
  EXPECT_LT(static_oob, total) << "some mutants must stay in bounds";
}

}  // namespace
}  // namespace alcop
