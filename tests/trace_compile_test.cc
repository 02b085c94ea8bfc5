// The trace compiler against its references. The compiler walks a run of
// identical loop iterations once and copies its micro-ops (sim/trace.h);
// these tests pin that shortcut from two sides:
//   - every program of the Fig. 10 spaces hashes to the value the
//     iteration-by-iteration compiler produced, byte for byte;
//   - on hand-built kernels that exercise each branch of the run rule, the
//     program's per-warp op kinds equal BuildTrace's events (which walks
//     every iteration) and replay's makespan equals the reference
//     interpreter's bit for bit.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "ir/parser.h"
#include "sim/compile.h"
#include "sim/desim.h"
#include "sim/launch.h"
#include "sim/trace.h"
#include "target/gpu_spec.h"
#include "tuner/space.h"
#include "workloads/ops.h"

namespace alcop {
namespace {

// FNV-1a, 64-bit.
class Fnv1a {
 public:
  void Bytes(const void* data, size_t size) {
    const auto* bytes = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) {
      hash_ ^= bytes[i];
      hash_ *= 1099511628211ull;
    }
  }
  template <typename T>
  void Value(const T& value) {
    static_assert(std::has_unique_object_representations_v<T> ||
                  std::is_floating_point_v<T>);
    Bytes(&value, sizeof(value));
  }
  template <typename T>
  void Array(const std::vector<T>& values) {
    Value(static_cast<uint64_t>(values.size()));
    for (const T& value : values) Value(value);
  }
  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 14695981039346656037ull;
};

void HashProgram(const sim::SimProgram& sim, Fnv1a& fnv) {
  fnv.Value(static_cast<uint8_t>(sim.feasible));
  fnv.Value(static_cast<uint64_t>(sim.reason.size()));
  fnv.Bytes(sim.reason.data(), sim.reason.size());
  const sim::MicroOpProgram& program = sim.program;
  fnv.Value(program.num_warps);
  fnv.Array(program.ops);
  fnv.Array(program.warp_begin);
  fnv.Value(static_cast<uint64_t>(program.groups.size()));
  for (const sim::MicroOpGroup& group : program.groups) {
    fnv.Value(group.stages);
    fnv.Value(static_cast<uint8_t>(group.tb_scope));
    fnv.Value(group.max_commits);
  }
  fnv.Value(static_cast<uint8_t>(program.blocking_async));
  fnv.Value(static_cast<uint64_t>(program.pool.size()));
  for (const sim::MicroOpOperands& row : program.pool) {
    for (double v : {row.op0, row.op1, row.op2, row.op3}) {
      fnv.Value(v);
    }
  }
  fnv.Value(program.sync_overhead_cycles);
  fnv.Value(program.half_sync_overhead_cycles);
}

// Every program of the default Fig. 10 spaces, plus one operator's split-K
// space with inner fusion, swizzling and async copies each turned off,
// compiled and hashed in enumeration order. The pinned values were taken
// from the compiler that walked every loop iteration.
TEST(TraceCompilePinned, EveryFig10ProgramHashesAsPinned) {
  const target::GpuSpec spec = target::AmpereSpec();
  Fnv1a fnv;
  int64_t programs = 0;
  int64_t feasible = 0;
  int64_t ops = 0;
  auto compile = [&](const schedule::GemmOp& op,
                     const schedule::ScheduleConfig& config) {
    sim::SimProgram program = sim::CompileSimProgram(op, config, spec);
    HashProgram(program, fnv);
    ++programs;
    feasible += program.feasible;
    ops += program.program.TotalOps();
  };
  for (const schedule::GemmOp& op : workloads::BenchmarkOps()) {
    for (const schedule::ScheduleConfig& config : tuner::EnumerateSpace(op)) {
      compile(op, config);
    }
  }
  const schedule::GemmOp& split_op = workloads::FindOp("MM_RN50_FC");
  const std::vector<schedule::ScheduleConfig> split_space =
      tuner::EnumerateSpace(split_op, tuner::SpaceOptions::WithSplitK());
  int64_t split_configs = 0;
  for (int variant = 0; variant < 3; ++variant) {
    for (schedule::ScheduleConfig config : split_space) {
      split_configs += config.split_k > 1;
      config.inner_fusion = variant != 0;
      config.swizzle = variant != 1;
      config.async_copies = variant != 2;
      compile(split_op, config);
    }
  }
  EXPECT_GT(split_configs, 0) << "the split-K space has no split configs";
  EXPECT_EQ(programs, 27840);
  EXPECT_EQ(feasible, 27060);
  EXPECT_EQ(ops, 53677000);
  EXPECT_EQ(fnv.hash(), 5449103770942553318u);
}

// ---- The run rule on hand-built kernels ----

sim::MicroOpKind KindOf(const sim::TraceEvent& event) {
  const bool global = event.src_scope == ir::MemScope::kGlobal;
  switch (event.kind) {
    case sim::EventKind::kCopyAsync:
      return global ? sim::MicroOpKind::kCopyAsyncGlobal
                    : sim::MicroOpKind::kCopyAsyncShared;
    case sim::EventKind::kCopySync:
      return global ? sim::MicroOpKind::kCopySyncGlobal
                    : sim::MicroOpKind::kCopySyncShared;
    case sim::EventKind::kAcquire: return sim::MicroOpKind::kAcquire;
    case sim::EventKind::kCommit: return sim::MicroOpKind::kCommit;
    case sim::EventKind::kWait: return sim::MicroOpKind::kWait;
    case sim::EventKind::kRelease: return sim::MicroOpKind::kRelease;
    case sim::EventKind::kBarrier: return sim::MicroOpKind::kBarrier;
    case sim::EventKind::kMma: return sim::MicroOpKind::kMma;
    case sim::EventKind::kFill: return sim::MicroOpKind::kFill;
    case sim::EventKind::kStoreGlobal: return sim::MicroOpKind::kStoreGlobal;
  }
  return sim::MicroOpKind::kBarrier;
}

// A repeating leaf that only counts the leaf calls the walk makes: how
// many statements it visited once runs are walked once.
struct VisitCounter {
  int64_t visits = 0;
  void operator()(const sim::TraceEvent&, sim::WarpRange) { ++visits; }
  int Mark() const { return 0; }
  void Repeat(int, int64_t) {}
};

bool BitEqual(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Compiles `body` (after the buffer declarations every kernel below
// shares) and checks it against BuildTrace and the interpreter. `visits`
// is the number of leaf calls the run rule leaves.
void ExpectMatchesReference(const std::string& body, int num_warps,
                            int64_t visits) {
  const std::string text =
      "alloc A: global fp16[4096, 16]\n"
      "alloc B: global fp16[4096, 16]\n"
      "alloc Cg: global fp32[64, 8]\n"
      "alloc As: shared fp16[2, 16, 16]\n"
      "alloc Bs: shared fp16[2, 8, 16]\n"
      "alloc Ar: register fp16[4, 16, 16]\n"
      "alloc C: accumulator fp32[4, 16, 8]\n" +
      body;
  SCOPED_TRACE(text);
  const ir::Stmt program = ir::ParseStmt(text);
  const target::GpuSpec spec = target::AmpereSpec();
  sim::DesimParams params;
  params.groups = {{.stages = 2, .tb_scope = true}};
  params.threadblocks = 2;

  const sim::ThreadblockTrace trace = sim::BuildTrace(program, num_warps);
  const sim::MicroOpProgram compiled =
      sim::CompileTraceProgram(program, num_warps, spec, params);
  ASSERT_EQ(compiled.warp_begin.size(), static_cast<size_t>(num_warps) + 1);
  for (int w = 0; w < num_warps; ++w) {
    const std::vector<sim::TraceEvent>& events =
        trace.warps[static_cast<size_t>(w)].events;
    const size_t begin = compiled.warp_begin[static_cast<size_t>(w)];
    const size_t end = compiled.warp_begin[static_cast<size_t>(w) + 1];
    ASSERT_EQ(end - begin, events.size()) << "warp " << w;
    for (size_t i = 0; i < events.size(); ++i) {
      ASSERT_EQ(compiled.ops[begin + i].kind, KindOf(events[i]))
          << "warp " << w << " op " << i;
    }
  }

  const double interp = sim::SimulateBatch(trace, spec, params);
  sim::ReplayWave wave;
  wave.threadblocks = params.threadblocks;
  wave.llc_rate = spec.llc_bw_bytes_per_cycle / spec.num_sms;
  wave.dram_rate = spec.dram_bw_bytes_per_cycle / spec.num_sms;
  wave.dram_write_rate = spec.dram_write_bw_bytes_per_cycle / spec.num_sms;
  sim::ReplayArena arena;
  const double replay = sim::ReplayBatch(compiled, wave, &arena);
  EXPECT_TRUE(BitEqual(interp, replay)) << interp << " vs " << replay;

  VisitCounter counter;
  sim::WalkThreadblock(program, num_warps, counter);
  EXPECT_EQ(counter.visits, visits);
}

// One pipelined k step: 7 leaves.
const char* kPipelinedStep =
    "  As/Bs.producer_acquire  @group0\n"
    "  copy.async As[k % 2, 0, 0][1, 16, 16] <- A[k * 16, 0][16, 16]  @group0\n"
    "  copy.async Bs[k % 2, 0, 0][1, 8, 16] <- B[k * 16, 0][8, 16]  @group0\n"
    "  As/Bs.producer_commit  @group0\n"
    "  As/Bs.consumer_wait  @group0\n"
    "  mma C[0, 0, 0][1, 16, 8] += As[k % 2, 0, 0][1, 16, 16] * "
    "Bs[k % 2, 0, 0][1, 8, 16]\n"
    "  As/Bs.consumer_release  @group0\n";

TEST(TraceRunTest, InvariantSerialLoopIsWalkedOnce) {
  ExpectMatchesReference(std::string("fill C[0, 0, 0][1, 16, 8] = 0\n"
                                     "for k in 0..64 serial {\n") +
                             kPipelinedStep +
                             "}\n"
                             "copy Cg[0, 0][16, 8] <- C[0, 0, 0][1, 16, 8]\n",
                         /*num_warps=*/2, /*visits=*/1 + 7 + 1);
}

TEST(TraceRunTest, GuardOnTheLoopVariableSplitsRuns) {
  // Runs [0, 2) and [2, 9): the body is walked at k = 0 and k = 2.
  ExpectMatchesReference(
      "for k in 0..9 serial {\n"
      "  if k < 2 {\n"
      "    fill C[0, 0, 0][1, 16, 8] = 0\n"
      "  } else {\n"
      "    barrier\n"
      "    copy Ar[0, 0, 0][1, 16, 16] <- As[k % 2, 0, 0][1, 16, 16]\n"
      "  }\n"
      "  mma C[0, 0, 0][1, 16, 8] += Ar[0, 0, 0][1, 16, 16] * "
      "Bs[0, 0, 0][1, 8, 16]\n"
      "}\n",
      /*num_warps=*/1, /*visits=*/2 + 3);
}

TEST(TraceRunTest, GuardOnAnInnerLoopVariableWalksEveryIteration) {
  // `k + j < 5` reads k and the inner j, so k's iterations are walked one
  // by one; j's loop still runs, as its guard reads only the outer k: one
  // run for k < 3, two ([0, 2) and [2, 3)) for k = 3.
  ExpectMatchesReference(
      "for k in 0..4 serial {\n"
      "  for j in 0..3 serial {\n"
      "    if k + j < 5 {\n"
      "      mma C[0, 0, 0][1, 16, 8] += Ar[0, 0, 0][1, 16, 16] * "
      "Bs[0, 0, 0][1, 8, 16]\n"
      "    }\n"
      "    barrier\n"
      "  }\n"
      "}\n",
      /*num_warps=*/1, /*visits=*/2 + 2 + 2 + 3);
}

TEST(TraceRunTest, TriangularExtentGivesEveryIterationItsOwnRun) {
  ExpectMatchesReference(
      "for i in 0..5 serial {\n"
      "  for j in 0..i serial {\n"
      "    mma C[0, 0, 0][1, 16, 8] += Ar[0, 0, 0][1, 16, 16] * "
      "Bs[0, 0, 0][1, 8, 16]\n"
      "  }\n"
      "  barrier\n"
      "}\n",
      /*num_warps=*/1, /*visits=*/4 + 5);
}

TEST(TraceRunTest, SerialLoopInsideAWarpLoopRepeatsPerWarp) {
  // Two warp bindings over four warps; each binding's k loop is walked
  // once and repeated for the two warps it addresses.
  ExpectMatchesReference(
      "for w in 0..2 warp {\n"
      "  for k in 0..12 serial {\n"
      "    copy Ar[w, 0, 0][1, 16, 16] <- As[k % 2, 0, 0][1, 16, 16]\n"
      "    mma C[w, 0, 0][1, 16, 8] += Ar[w, 0, 0][1, 16, 16] * "
      "Bs[k % 2, 0, 0][1, 8, 16]\n"
      "  }\n"
      "  copy Cg[w * 16, 0][16, 8] <- C[w, 0, 0][1, 16, 8]\n"
      "}\n" +
          std::string("for k in 0..8 serial {\n") + kPipelinedStep + "}\n",
      /*num_warps=*/4, /*visits=*/2 * 3 + 7);
}

TEST(TraceRunTest, ExtentsZeroAndOne) {
  ExpectMatchesReference(std::string("for k in 0..0 serial {\n") +
                             kPipelinedStep + "}\n" +
                             "for k in 0..1 serial {\n" + kPipelinedStep +
                             "}\n",
                         /*num_warps=*/2, /*visits=*/7);
}

}  // namespace
}  // namespace alcop
