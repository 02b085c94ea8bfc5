#include "schedule/lower.h"

#include "obs/trace.h"
#include "support/check.h"
#include "verify/verifier.h"

namespace alcop {
namespace schedule {

using namespace alcop::ir;  // NOLINT(build/namespaces) - IR building DSL

namespace {

// Region helper: buffer[offsets...][sizes...].
BufferRegion Region(const Buffer& buffer, std::vector<Expr> offsets,
                    std::vector<int64_t> sizes) {
  BufferRegion region;
  region.buffer = buffer;
  region.offsets = std::move(offsets);
  region.sizes = std::move(sizes);
  return region;
}

}  // namespace

target::ThreadblockResources ComputeResources(const GemmOp& /*op*/,
                                              const ScheduleConfig& config) {
  const TileConfig& t = config.tile;
  target::ThreadblockResources res;
  res.smem_bytes =
      (t.tb_m * t.tb_k + t.tb_n * t.tb_k) * 2 * config.smem_stages;
  // Per-warp registers: fp16 A/B fragments replicated per register pipeline
  // stage, fp32 accumulators, plus a fixed 32-registers-per-thread overhead
  // for indices and control flow.
  int64_t frag_bytes =
      (t.warp_m * t.warp_k + t.warp_n * t.warp_k) * 2 * config.reg_stages;
  int64_t acc_bytes = t.warp_m * t.warp_n * 4;
  int64_t overhead_bytes = 32 * 32 * 4;
  res.warps = config.NumWarps();
  res.reg_bytes = res.warps * (frag_bytes + acc_bytes + overhead_bytes);
  return res;
}

StaticFeasibility CheckFeasibility(const GemmOp& op,
                                   const ScheduleConfig& config,
                                   const target::GpuSpec& spec) {
  StaticFeasibility verdict;
  std::string why;
  if (!ValidateConfig(op, config, &why)) {
    verdict.feasible = false;
    verdict.reason = "invalid schedule: " + why;
    return verdict;
  }
  verdict.resources = ComputeResources(op, config);
  verdict.occupancy = target::ComputeOccupancy(spec, verdict.resources);
  if (verdict.occupancy.threadblocks_per_sm == 0) {
    verdict.feasible = false;
    verdict.reason = std::string("threadblock does not fit: ") +
                     target::LimiterName(verdict.occupancy.limiter);
  }
  return verdict;
}

LoweredKernel LowerSchedule(const Schedule& schedule) {
  ALCOP_TRACE_SCOPE("lower", "compiler");
  const GemmOp& op = schedule.op();
  const ScheduleConfig& config = schedule.config();
  const TileConfig& t = config.tile;

  LoweredKernel kernel;
  kernel.op = op;
  kernel.config = config;
  kernel.inline_order = schedule.inline_order();
  kernel.grid_batch = op.batch;
  kernel.grid_m = op.m / t.tb_m;
  kernel.grid_n = op.n / t.tb_n;
  kernel.grid_k = config.split_k;
  kernel.num_warps = config.NumWarps();
  kernel.ko_extent = op.k / (t.tb_k * config.split_k);
  kernel.ki_extent = t.tb_k / t.warp_k;
  int64_t k_per_split = op.k / config.split_k;
  kernel.has_standalone_ewise = schedule.HasStandaloneEwise();

  int64_t num_wm = t.tb_m / t.warp_m;
  int64_t num_wn = t.tb_n / t.warp_n;

  // ---- Global tensors ----
  kernel.a = MakeBuffer("A", MemScope::kGlobal, {op.batch, op.m, op.k});
  kernel.b = MakeBuffer("B", MemScope::kGlobal, {op.batch, op.n, op.k});
  kernel.c = MakeBuffer("C", MemScope::kGlobal, {op.batch, op.m, op.n});

  const StageInfo* a_shared_stage = schedule.FindStage("A_shared");
  const StageInfo* b_shared_stage = schedule.FindStage("B_shared");
  const StageInfo* a_reg_stage = schedule.FindStage("A_reg");
  const StageInfo* b_reg_stage = schedule.FindStage("B_reg");
  ALCOP_CHECK(a_shared_stage && b_shared_stage && a_reg_stage && b_reg_stage)
      << "schedule is missing the canonical GEMM stages";

  Buffer a_source = kernel.a;
  if (kernel.has_standalone_ewise) {
    kernel.a_ew = MakeBuffer("A_ew", MemScope::kGlobal, {op.batch, op.m, op.k});
    a_source = kernel.a_ew;
  }

  // ---- Threadblock-local buffers ----
  Buffer a_s = MakeBuffer("A_shared", MemScope::kShared, {t.tb_m, t.tb_k});
  Buffer b_s = MakeBuffer("B_shared", MemScope::kShared, {t.tb_n, t.tb_k});
  // Register fragments are private to each physical warp, so they are
  // indexed by both warp coordinates even though A's fragment values only
  // depend on wm (warps with equal wm hold duplicate copies, as on real
  // hardware).
  Buffer a_r = MakeBuffer("A_reg", MemScope::kRegister,
                          {num_wm, num_wn, t.warp_m, t.warp_k});
  Buffer b_r = MakeBuffer("B_reg", MemScope::kRegister,
                          {num_wm, num_wn, t.warp_n, t.warp_k});
  Buffer c_acc = MakeBuffer("C_acc", MemScope::kAccumulator,
                            {num_wm, num_wn, t.warp_m, t.warp_n}, 4);

  // ---- Loop variables ----
  Var bi = MakeVar("bi");
  Var bm = MakeVar("bm");
  Var bn = MakeVar("bn");
  Var bk = MakeVar("bk");  // split-K slice (used when split_k > 1)
  Var ko = MakeVar("ko");
  Var ki = MakeVar("ki");
  Var wm0 = MakeVar("wm");   // warp loops of the main loop
  Var wn0 = MakeVar("wn");
  Var wmf = MakeVar("wm");   // warp loops of the accumulator fill
  Var wnf = MakeVar("wn");
  Var wme = MakeVar("wm");   // warp loops of the epilogue
  Var wne = MakeVar("wn");

  // ---- Accumulator initialization ----
  Stmt fill = For(
      wmf, num_wm, ForKind::kWarp,
      For(wnf, num_wn, ForKind::kWarp,
          Fill(Region(c_acc, {wmf, wnf, Int(0), Int(0)},
                      {1, 1, t.warp_m, t.warp_n}),
               0.0)));

  // ---- Main load-and-use loop ----
  // Shared-memory loads (the ko-level "load" part). With split-K each
  // threadblock covers only its K-slice.
  Expr k_base = config.split_k > 1
                    ? Add(Mul(ko, t.tb_k), Mul(bk, k_per_split))
                    : Mul(ko, t.tb_k);
  Stmt load_a_s = Copy(
      Region(a_s, {Int(0), Int(0)}, {t.tb_m, t.tb_k}),
      Region(a_source, {bi, Mul(bm, t.tb_m), k_base}, {1, t.tb_m, t.tb_k}),
      a_shared_stage->producer_op, a_shared_stage->producer_param);
  Stmt load_b_s = Copy(
      Region(b_s, {Int(0), Int(0)}, {t.tb_n, t.tb_k}),
      Region(kernel.b, {bi, Mul(bn, t.tb_n), k_base}, {1, t.tb_n, t.tb_k}),
      b_shared_stage->producer_op, b_shared_stage->producer_param);

  // Register loads + MMA (the ki-level inner load-and-use loop).
  Stmt load_a_r =
      Copy(Region(a_r, {wm0, wn0, Int(0), Int(0)}, {1, 1, t.warp_m, t.warp_k}),
           Region(a_s, {Mul(wm0, t.warp_m), Mul(ki, t.warp_k)},
                  {t.warp_m, t.warp_k}),
           a_reg_stage->producer_op, a_reg_stage->producer_param);
  Stmt load_b_r =
      Copy(Region(b_r, {wm0, wn0, Int(0), Int(0)}, {1, 1, t.warp_n, t.warp_k}),
           Region(b_s, {Mul(wn0, t.warp_n), Mul(ki, t.warp_k)},
                  {t.warp_n, t.warp_k}),
           b_reg_stage->producer_op, b_reg_stage->producer_param);
  Stmt mma = Mma(
      Region(c_acc, {wm0, wn0, Int(0), Int(0)}, {1, 1, t.warp_m, t.warp_n}),
      Region(a_r, {wm0, wn0, Int(0), Int(0)}, {1, 1, t.warp_m, t.warp_k}),
      Region(b_r, {wm0, wn0, Int(0), Int(0)}, {1, 1, t.warp_n, t.warp_k}));

  Stmt inner_loop = For(ki, kernel.ki_extent, ForKind::kSerial,
                        Block({load_a_r, load_b_r, mma}));
  Stmt warp_compute = For(wm0, num_wm, ForKind::kWarp,
                          For(wn0, num_wn, ForKind::kWarp, inner_loop));

  // Barriers guard the shared-memory buffer in the synchronous baseline:
  // one after the cooperative load (data visible to all warps), one at the
  // end of the iteration (all warps done reading before the next
  // overwrite). The pipeline transformation replaces both.
  Stmt main_loop =
      For(ko, kernel.ko_extent, ForKind::kSerial,
          Block({load_a_s, load_b_s, Barrier(), warp_compute, Barrier()}));

  // ---- Epilogue: write back accumulators ----
  // Plain kernels fuse the elementwise epilogue into the write-back.
  // Split-K kernels write fp32 partial tiles into a workspace instead; the
  // reduction pass below combines the slices and applies the epilogue.
  Expr row = Add(Mul(bm, t.tb_m), Mul(wme, t.warp_m));
  Expr col = Add(Mul(bn, t.tb_n), Mul(wne, t.warp_n));
  BufferRegion acc_out =
      Region(c_acc, {wme, wne, Int(0), Int(0)}, {1, 1, t.warp_m, t.warp_n});
  Stmt store;
  if (config.split_k > 1) {
    kernel.workspace =
        MakeBuffer("C_workspace", MemScope::kGlobal,
                   {config.split_k, op.batch, op.m, op.n}, 4);
    store = Copy(Region(kernel.workspace, {bk, bi, row, col},
                        {1, 1, t.warp_m, t.warp_n}),
                 acc_out);
  } else {
    store = Copy(Region(kernel.c, {bi, row, col}, {1, t.warp_m, t.warp_n}),
                 acc_out, op.epilogue_op, op.epilogue_param);
  }
  Stmt epilogue =
      For(wme, num_wm, ForKind::kWarp, For(wne, num_wn, ForKind::kWarp, store));

  // ---- Threadblock body with allocations and pipeline hints ----
  Stmt tb_body = Block({Alloc(a_s), Alloc(b_s), Alloc(a_r), Alloc(b_r),
                        Alloc(c_acc), fill, main_loop, epilogue});

  // Wrap pipeline-hint pragmas for buffers the detection pass marked.
  struct Hint {
    const StageInfo* stage;
    Buffer buffer;
  };
  for (const Hint& hint : {Hint{b_reg_stage, b_r}, Hint{a_reg_stage, a_r},
                           Hint{b_shared_stage, b_s}, Hint{a_shared_stage, a_s}}) {
    if (hint.stage->pipeline_stages >= 2) {
      tb_body = Pragma(kPipelinePragma, hint.buffer, hint.stage->pipeline_stages,
                       tb_body);
    }
  }

  Stmt kernel_loops =
      For(bi, kernel.grid_batch, ForKind::kBlockIdx,
          For(bm, kernel.grid_m, ForKind::kBlockIdx,
              For(bn, kernel.grid_n, ForKind::kBlockIdx, tb_body)));
  if (config.split_k > 1) {
    kernel_loops = For(bk, config.split_k, ForKind::kBlockIdx, kernel_loops);
  }

  std::vector<Stmt> program;
  if (kernel.has_standalone_ewise) {
    const StageInfo* ew = schedule.FindStage("A_ew");
    program.push_back(Copy(FullRegion(kernel.a_ew), FullRegion(kernel.a),
                           ew->producer_op, ew->producer_param));
  }
  program.push_back(std::move(kernel_loops));

  if (config.split_k > 1) {
    // Reduction pass: sum the workspace slices into C and apply the
    // (deferred) elementwise epilogue. Runs as a separate memory-bound
    // kernel; the simulator charges it at DRAM bandwidth.
    for (int64_t s = 0; s < config.split_k; ++s) {
      BufferRegion slice =
          Region(kernel.workspace, {Int(s), Int(0), Int(0), Int(0)},
                 {1, op.batch, op.m, op.n});
      if (s == 0) {
        program.push_back(Copy(FullRegion(kernel.c), slice));
      } else {
        program.push_back(AccumulateCopy(FullRegion(kernel.c), slice));
      }
    }
    if (op.epilogue_op != EwiseOp::kNone) {
      program.push_back(Copy(FullRegion(kernel.c), FullRegion(kernel.c),
                             op.epilogue_op, op.epilogue_param));
    }
  }

  kernel.stmt = FlatBlock(std::move(program));
  // Self-check (CI runs with ALCOP_VERIFY=1): lowered IR must be clean
  // before the pipeline transformation ever sees it.
  verify::VerifyOrThrowIfEnabled(kernel.stmt, "schedule lowering");
  return kernel;
}

}  // namespace schedule
}  // namespace alcop
