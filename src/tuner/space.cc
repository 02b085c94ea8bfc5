#include "tuner/space.h"

namespace alcop {
namespace tuner {

SpaceOptions SpaceOptions::WithSplitK() {
  SpaceOptions options;
  options.split_k = {1, 2, 4, 8};
  return options;
}

SpaceOptions SpaceOptions::NoPipelining() {
  SpaceOptions options;
  options.smem_stages = {1};
  options.reg_stages = {1};
  return options;
}

SpaceOptions SpaceOptions::SharedPipeliningOnly() {
  SpaceOptions options;
  options.reg_stages = {1};
  return options;
}

std::vector<schedule::ScheduleConfig> EnumerateSpace(
    const schedule::GemmOp& op, const SpaceOptions& options) {
  std::vector<schedule::ScheduleConfig> space;
  for (int64_t tb_m : options.tb_m) {
    for (int64_t tb_n : options.tb_n) {
      for (int64_t tb_k : options.tb_k) {
        for (const auto& [split_m, split_n] : options.warp_splits) {
          if (tb_m % split_m != 0 || tb_n % split_n != 0) continue;
          for (int64_t warp_k : options.warp_k) {
            // Split-K only pays off when the spatial grid alone cannot
            // fill the device; prune it elsewhere to keep the space tight.
            int64_t spatial_grid =
                op.batch * (op.m / tb_m) * (op.n / tb_n);
            for (int split : options.split_k) {
              if (split > 1 && spatial_grid >= 4 * 108) continue;
              for (int smem : options.smem_stages) {
                for (int reg : options.reg_stages) {
                  schedule::ScheduleConfig config;
                  config.tile = {tb_m, tb_n, tb_k, tb_m / split_m,
                                 tb_n / split_n, warp_k};
                  config.smem_stages = smem;
                  config.reg_stages = reg;
                  config.split_k = split;
                  if (!schedule::ValidateConfig(op, config)) continue;
                  space.push_back(config);
                }
              }
            }
          }
        }
      }
    }
  }
  return space;
}

}  // namespace tuner
}  // namespace alcop
