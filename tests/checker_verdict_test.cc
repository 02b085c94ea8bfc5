// Pins what both static checkers say about the mutant suites of the two
// fuzz differentials: every diagnostic (code, span, path, message, notes)
// that VerifyProgram and LintProgram emit for each unmutated kernel and
// each of its sync and index mutants, hashed per suite and checker.
//
// The differentials compare one verdict bit per mutant against the
// executor; this test pins the full report. The index mutants move
// offsets off whole stage slots, which is where the verifier's slot
// tracker and lint's box tracker disagree, so a change that blurs either
// tracker's meaning fails here even when every verdict bit holds.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/index_mutator.h"
#include "analysis/pass.h"
#include "pipeline/detect.h"
#include "pipeline/transform.h"
#include "schedule/lower.h"
#include "sim/launch.h"
#include "target/gpu_spec.h"
#include "verify/sync_mutator.h"
#include "verify/verifier.h"

namespace alcop {
namespace {

struct Case {
  int64_t k;
  int smem_stages;
  int reg_stages;
  bool inner_fusion;
};

schedule::ScheduleConfig SmallConfig(const Case& c) {
  schedule::ScheduleConfig config;
  config.tile = {.tb_m = 32, .tb_n = 32, .tb_k = 32,
                 .warp_m = 16, .warp_n = 16, .warp_k = 16};
  config.smem_stages = c.smem_stages;
  config.reg_stages = c.reg_stages;
  config.inner_fusion = c.inner_fusion;
  return config;
}

// 64-bit FNV-1a over the rendered reports of each checked program.
class ReportHash {
 public:
  void Add(const std::vector<verify::Diagnostic>& diagnostics) {
    for (const verify::Diagnostic& diag : diagnostics) {
      Mix(diag.code);
      Mix(std::to_string(diag.span.line) + ":" +
          std::to_string(diag.span.column));
      Mix(diag.path);
      Mix(diag.message);
      for (const std::string& note : diag.notes) Mix(note);
      Mix("\x1e");  // end of diagnostic
    }
    Mix("\x1d");  // end of program
    ++programs_;
  }

  uint64_t value() const { return hash_; }
  int programs() const { return programs_; }

 private:
  // Mixes the bytes of `text` and a terminating NUL, so adjacent fields
  // cannot trade bytes without changing the hash.
  void Mix(const std::string& text) {
    for (char c : text) Byte(static_cast<unsigned char>(c));
    Byte(0);
  }

  void Byte(unsigned char byte) {
    hash_ ^= byte;
    hash_ *= 1099511628211ull;
  }

  uint64_t hash_ = 14695981039346656037ull;
  int programs_ = 0;
};

struct CheckerHashes {
  ReportHash verify;
  ReportHash lint;

  void Check(const ir::Stmt& program) {
    verify.Add(verify::VerifyProgram(program).diagnostics);
    lint.Add(analysis::LintProgram(program).diagnostics);
  }
};

// SyncMutationDifferential's six kernels and their drop, duplicate,
// shift and wait_ahead+1 mutants.
TEST(CheckerVerdictPin, SyncMutantReportsArePinned) {
  const target::GpuSpec spec = target::AmpereSpec();
  const Case cases[] = {
      {96, 3, 2, true},  {96, 3, 2, false},  {64, 2, 2, true},
      {64, 2, 2, false}, {160, 4, 2, true},  {160, 4, 2, false},
  };
  const verify::SyncMutation kMutations[] = {
      verify::SyncMutation::kDrop,
      verify::SyncMutation::kDuplicate,
      verify::SyncMutation::kShiftEarlier,
      verify::SyncMutation::kShiftLater,
  };
  CheckerHashes hashes;
  for (const Case& c : cases) {
    schedule::GemmOp op = schedule::MakeMatmul("mutfuzz", 32, 32, c.k);
    schedule::Schedule sched(op, SmallConfig(c),
                             schedule::InlineOrder::kAfterPipelining);
    pipeline::AutoPipeline(sched, spec);
    schedule::LoweredKernel kernel = schedule::LowerSchedule(sched);
    const ir::Stmt program =
        pipeline::ApplyPipelineTransform(kernel.stmt, c.inner_fusion).stmt;
    hashes.Check(program);
    std::vector<verify::SyncSite> sites = verify::ListSyncSites(program);
    for (size_t s = 0; s < sites.size(); ++s) {
      for (verify::SyncMutation mutation : kMutations) {
        ir::Stmt mutant = verify::MutateSyncSite(program, s, mutation);
        if (mutant != nullptr) hashes.Check(mutant);
      }
      if (sites[s].stmt->sync_kind == ir::SyncKind::kConsumerWait) {
        ir::Stmt slack =
            verify::SetWaitAhead(program, s, sites[s].stmt->wait_ahead + 1);
        if (slack != nullptr) hashes.Check(slack);
      }
    }
  }
  EXPECT_EQ(hashes.verify.programs(), 318);
  EXPECT_EQ(hashes.verify.value(), 10067428653844423005ull);
  EXPECT_EQ(hashes.lint.value(), 16497281593413158794ull);
}

// BoundsMutationDifferential's four kernels and their index mutants.
TEST(CheckerVerdictPin, IndexMutantReportsArePinned) {
  const target::GpuSpec spec = target::AmpereSpec();
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
  CheckerHashes hashes;
  for (const Case& c : cases) {
    schedule::GemmOp op = schedule::MakeMatmul("boundsfuzz", 32, 32, c.k);
    sim::CompiledKernel compiled =
        sim::CompileKernel(op, SmallConfig(c), spec);
    const ir::Stmt& program = compiled.transformed.stmt;
    hashes.Check(program);
    for (const analysis::IndexSite& site : analysis::ListIndexSites(program)) {
      for (analysis::IndexMutation mutation : kMutations) {
        hashes.Check(analysis::MutateIndexSite(program, site, mutation));
      }
    }
  }
  EXPECT_EQ(hashes.verify.programs(), 1744);
  EXPECT_EQ(hashes.verify.value(), 15456847277842232581ull);
  EXPECT_EQ(hashes.lint.value(), 11899615327010821153ull);
}

}  // namespace
}  // namespace alcop
