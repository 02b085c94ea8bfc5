// Example: visualizing what pipelining actually does.
//
// Captures the discrete-event simulator's execution timeline of one
// threadblock batch for the same GEMM compiled three ways, and renders
// the paper's Fig. 2/3 intuition from real simulation data:
//   - synchronous baseline: warps alternate blocking loads ('L') and
//     tensor-core work ('M'), separated by barriers ('b');
//   - shared-memory pipelining: loads become background transfers ('T' on
//     the memory row) and the warps' stalls shrink to pipeline waits ('w');
//   - multi-stage multi-level: compute ('M') dominates the rows.
#include <cstdio>

#include "sim/launch.h"
#include "sim/timeline.h"
#include "target/gpu_spec.h"

using namespace alcop;  // NOLINT(build/namespaces) - example code

namespace {

void Show(const char* label, const schedule::GemmOp& op,
          const schedule::ScheduleConfig& config,
          const target::GpuSpec& spec) {
  sim::BatchTimeline batch;
  sim::KernelTiming timing = sim::InterpretKernel(
      sim::CompileKernel(op, config, spec), spec, nullptr, &batch);
  std::printf("== %s (%s): %.0f cycles, %.1f TFLOP/s ==\n", label,
              config.ToString().c_str(), timing.cycles, timing.tflops);
  sim::RenderOptions options;
  options.max_threadblocks = 1;  // one threadblock is enough to see it
  std::printf("%s\n", sim::RenderTimeline(batch.timeline, batch.num_warps,
                                          options)
                          .c_str());
}

}  // namespace

int main() {
  target::GpuSpec spec = target::AmpereSpec();
  // A K-heavy problem where the load/compute overlap is clearly visible.
  schedule::GemmOp op = schedule::MakeMatmul("MM_timeline", 512, 256, 2048);

  schedule::ScheduleConfig config;
  config.tile = {.tb_m = 128, .tb_n = 128, .tb_k = 32,
                 .warp_m = 64, .warp_n = 64, .warp_k = 16};

  Show("synchronous baseline", op, config, spec);

  config.smem_stages = 3;
  Show("3-stage shared-memory pipeline", op, config, spec);

  config.smem_stages = 4;
  config.reg_stages = 2;
  Show("4-stage + multi-level pipeline", op, config, spec);
  return 0;
}
