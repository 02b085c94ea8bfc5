#include "obs/stall.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>
#include <utility>

#include "obs/flight.h"
#include "obs/metrics.h"
#include "perfmodel/bottleneck.h"
#include "support/json.h"

namespace alcop {
namespace obs {

using support::JsonNumber;

namespace {

// Length of the union of [start, end) intervals (pipes can hold several
// overlapping transfers in flight; busy time must not double-count).
double UnionLength(std::vector<std::pair<double, double>>* intervals) {
  if (intervals->empty()) return 0.0;
  std::sort(intervals->begin(), intervals->end());
  double covered = 0.0;
  double begin = (*intervals)[0].first;
  double end = (*intervals)[0].second;
  for (const auto& [s, e] : *intervals) {
    if (s > end) {
      covered += end - begin;
      begin = s;
      end = e;
    } else {
      end = std::max(end, e);
    }
  }
  return covered + (end - begin);
}

void Accumulate(CycleBreakdown* breakdown, sim::SpanKind kind,
                double duration) {
  switch (kind) {
    case sim::SpanKind::kCompute: breakdown->compute += duration; break;
    case sim::SpanKind::kIssue: breakdown->issue += duration; break;
    case sim::SpanKind::kSyncStall: breakdown->sync_stall += duration; break;
    case sim::SpanKind::kBarrier: breakdown->barrier += duration; break;
    case sim::SpanKind::kBlockingCopy:
      breakdown->exposed_copy += duration;
      break;
    case sim::SpanKind::kFill: breakdown->fill += duration; break;
    case sim::SpanKind::kStore: breakdown->store += duration; break;
    case sim::SpanKind::kTransfer: break;  // background pipe, not warp time
  }
}

std::string Pct(double fraction) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%5.1f%%", fraction * 100.0);
  return buf;
}

}  // namespace

KernelProfile ProfileBatch(const sim::BatchTimeline& batch) {
  KernelProfile profile;
  profile.makespan = batch.timeline.makespan;
  profile.threadblocks = batch.threadblocks;
  profile.num_warps = batch.num_warps;

  std::map<std::pair<int, int>, CycleBreakdown> per_warp;
  // Every (tb, warp) row exists even if it recorded no spans, so the
  // breakdown table always covers the whole launch.
  for (int tb = 0; tb < batch.threadblocks; ++tb) {
    for (int warp = 0; warp < batch.num_warps; ++warp) {
      per_warp[{tb, warp}] = CycleBreakdown();
    }
  }

  std::vector<std::pair<double, double>> compute_busy;
  std::vector<std::pair<double, double>> memory_busy;
  double first_compute = profile.makespan;
  double last_compute = 0.0;
  bool any_compute = false;

  // Pipe utilization is busy time *within* the makespan window: the
  // memory pipes keep draining transfers past the batch boundary, and
  // counting that tail would push utilization above 1.
  auto clamped = [&](double start, double end) {
    return std::make_pair(std::max(start, 0.0),
                          std::min(end, profile.makespan));
  };
  for (const sim::TimelineSpan& span : batch.timeline.spans) {
    double duration = span.end - span.start;
    if (span.warp < 0) {
      if (span.start < profile.makespan && span.end > 0.0) {
        memory_busy.push_back(clamped(span.start, span.end));
      }
      continue;
    }
    Accumulate(&per_warp[{span.tb, span.warp}], span.kind, duration);
    if (span.kind == sim::SpanKind::kCompute) {
      if (span.start < profile.makespan && span.end > 0.0) {
        compute_busy.push_back(clamped(span.start, span.end));
      }
      first_compute = std::min(first_compute, span.start);
      last_compute = std::max(last_compute, span.end);
      any_compute = true;
    }
  }

  for (auto& [key, breakdown] : per_warp) {
    breakdown.idle = profile.makespan - (breakdown.compute + breakdown.issue +
                                         breakdown.sync_stall +
                                         breakdown.barrier +
                                         breakdown.exposed_copy +
                                         breakdown.fill + breakdown.store);
    WarpProfile row;
    row.tb = key.first;
    row.warp = key.second;
    row.cycles = breakdown;
    profile.warps.push_back(row);

    profile.total.compute += breakdown.compute;
    profile.total.issue += breakdown.issue;
    profile.total.sync_stall += breakdown.sync_stall;
    profile.total.barrier += breakdown.barrier;
    profile.total.exposed_copy += breakdown.exposed_copy;
    profile.total.fill += breakdown.fill;
    profile.total.store += breakdown.store;
    profile.total.idle += breakdown.idle;
  }

  if (profile.makespan > 0.0) {
    profile.tensor_pipe_utilization =
        UnionLength(&compute_busy) / profile.makespan;
    profile.memory_pipe_utilization =
        UnionLength(&memory_busy) / profile.makespan;
    if (any_compute) {
      profile.fill_fraction = std::max(first_compute, 0.0) / profile.makespan;
      profile.drain_fraction =
          std::max(profile.makespan - last_compute, 0.0) / profile.makespan;
    }
  }

  // Verdict from the aggregate warp-time split: blocking copies dominate
  // -> the schedule failed to hide loads at all (TVM-DB shape); stalls
  // dominate -> loads are hidden but the pipes can't feed the warps
  // (bandwidth) or the pipeline is too shallow (latency); otherwise the
  // tensor cores are the constraint.
  const CycleBreakdown& t = profile.total;
  double stall = t.sync_stall + t.barrier;
  if (t.exposed_copy > t.compute && t.exposed_copy >= stall) {
    profile.verdict = "exposed-copy-bound";
  } else if (stall > t.compute) {
    profile.verdict = profile.memory_pipe_utilization >=
                              profile.tensor_pipe_utilization
                          ? "memory-bandwidth-bound"
                          : "sync-stall-bound";
  } else {
    profile.verdict = "compute-bound";
  }
  return profile;
}

void AttachModelVerdict(KernelProfile* profile, const schedule::GemmOp& op,
                        const schedule::ScheduleConfig& config,
                        const target::GpuSpec& spec) {
  perfmodel::BottleneckBreakdown model =
      perfmodel::BottleneckAnalyze(op, config, spec);
  profile->model_limiter = model.Limiter();
  profile->model_cycles = model.Cycles();
  bool measured_compute = profile->verdict == "compute-bound";
  bool model_compute = profile->model_limiter == std::string("compute");
  profile->model_agrees = measured_compute == model_compute;
}

std::string RenderProfile(const KernelProfile& profile) {
  std::ostringstream out;
  out << "kernel profile: batch makespan "
      << static_cast<int64_t>(profile.makespan) << " cycles, "
      << profile.threadblocks << " tb x " << profile.num_warps
      << " warps resident per SM\n";
  out << "              compute   issue    sync barrier exposed    fill"
         "   store    idle\n";
  auto row = [&](const std::string& label, const CycleBreakdown& c) {
    double denom = profile.makespan > 0.0 ? profile.makespan : 1.0;
    // The total row aggregates every warp row, so it normalizes by
    // warp-count * makespan to stay a fraction of warp time.
    if (label == "total") {
      denom *= std::max<size_t>(profile.warps.size(), 1);
    }
    out << std::left;
    char buf[16];
    std::snprintf(buf, sizeof(buf), "%-12s", label.c_str());
    out << buf << "  " << Pct(c.compute / denom) << "  " << Pct(c.issue / denom)
        << "  " << Pct(c.sync_stall / denom) << "  " << Pct(c.barrier / denom)
        << "  " << Pct(c.exposed_copy / denom) << "  " << Pct(c.fill / denom)
        << "  " << Pct(c.store / denom) << "  " << Pct(c.idle / denom) << "\n";
  };
  for (const WarpProfile& warp : profile.warps) {
    row("tb" + std::to_string(warp.tb) + " warp" + std::to_string(warp.warp),
        warp.cycles);
  }
  row("total", profile.total);
  out << "pipes: tensor-core " << Pct(profile.tensor_pipe_utilization)
      << " busy, memory " << Pct(profile.memory_pipe_utilization) << " busy\n";
  out << "pipeline: fill " << Pct(profile.fill_fraction) << " of makespan, "
      << "drain " << Pct(profile.drain_fraction) << "\n";
  out << "verdict: " << profile.verdict;
  if (!profile.model_limiter.empty()) {
    out << "  (bottleneck model: " << profile.model_limiter << "-limited, "
        << (profile.model_agrees ? "agrees" : "disagrees") << ")";
  }
  out << "\n";
  return out.str();
}

std::string ProfileToJson(const KernelProfile& profile,
                          const sim::KernelTiming* timing,
                          const sim::KernelPmu* pmu) {
  std::ostringstream out;
  auto breakdown = [&](const CycleBreakdown& c) {
    std::ostringstream b;
    b << "{\"compute\": " << JsonNumber(c.compute)
      << ", \"issue\": " << JsonNumber(c.issue)
      << ", \"sync_stall\": " << JsonNumber(c.sync_stall)
      << ", \"barrier\": " << JsonNumber(c.barrier)
      << ", \"exposed_copy\": " << JsonNumber(c.exposed_copy)
      << ", \"fill\": " << JsonNumber(c.fill)
      << ", \"store\": " << JsonNumber(c.store)
      << ", \"idle\": " << JsonNumber(c.idle) << "}";
    return b.str();
  };
  out << "{\n";
  out << "  \"makespan_cycles\": " << JsonNumber(profile.makespan) << ",\n";
  out << "  \"threadblocks\": " << profile.threadblocks << ",\n";
  out << "  \"num_warps\": " << profile.num_warps << ",\n";
  if (timing != nullptr) {
    out << "  \"kernel_cycles\": " << JsonNumber(timing->cycles) << ",\n";
    out << "  \"kernel_microseconds\": " << JsonNumber(timing->microseconds)
        << ",\n";
    out << "  \"kernel_tflops\": " << JsonNumber(timing->tflops) << ",\n";
    out << "  \"batches\": " << timing->batches << ",\n";
  }
  out << "  \"tensor_pipe_utilization\": "
      << JsonNumber(profile.tensor_pipe_utilization) << ",\n";
  out << "  \"memory_pipe_utilization\": "
      << JsonNumber(profile.memory_pipe_utilization) << ",\n";
  out << "  \"fill_fraction\": " << JsonNumber(profile.fill_fraction) << ",\n";
  out << "  \"drain_fraction\": " << JsonNumber(profile.drain_fraction)
      << ",\n";
  out << "  \"verdict\": \"" << profile.verdict << "\",\n";
  out << "  \"model_limiter\": \"" << profile.model_limiter << "\",\n";
  out << "  \"model_cycles\": " << JsonNumber(profile.model_cycles) << ",\n";
  out << "  \"model_agrees\": " << (profile.model_agrees ? "true" : "false")
      << ",\n";
  if (pmu != nullptr && pmu->collected) {
    out << "  \"pmu\": " << sim::PmuToJson(*pmu) << ",\n";
  }
  // The host-side metrics registry (sim.cache.* residency/eviction/disk
  // gauges, tuner counters) — so one profile --json capture carries the
  // cache-economics story alongside the kernel's.
  out << "  \"metrics\": "
      << FlattenSnapshotJson(Registry::Global().Snapshot()) << ",\n";
  out << "  \"total\": " << breakdown(profile.total) << ",\n";
  out << "  \"warps\": [\n";
  for (size_t i = 0; i < profile.warps.size(); ++i) {
    const WarpProfile& warp = profile.warps[i];
    out << "    {\"tb\": " << warp.tb << ", \"warp\": " << warp.warp
        << ", \"cycles\": " << breakdown(warp.cycles) << "}";
    out << (i + 1 < profile.warps.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
  return out.str();
}

}  // namespace obs
}  // namespace alcop
