// Shared plumbing of the benchmark binary: run options, the result line,
// the per-layer metric set, percentiles, host-noise probes, span analysis,
// the alcopd-style tune and the interpreter oracle comparison. Every
// workload (tune_fig10.cc, compile_cold.cc, serve_mixed.cc) reports through
// a Report and prints nothing else on the result line.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "schedule/schedule.h"
#include "support/rng.h"
#include "target/gpu_spec.h"
#include "tuner/records.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  // Smallest size: few operators, a small store, one set-up repetition.
  // Used by the self-test; never by a measured run.
  bool quick = false;
  // Negative self-test: nudges every reference cycle count by one ulp, so
  // a working oracle must report failed operations.
  bool perturb_oracle = false;
  std::string out_dir;  // socket, stores, access log, Chrome traces
  std::string sha;      // provenance only
};

struct LayerMetrics;

// One run's result: counts against the oracle plus named metrics. Per-layer
// metrics also carry the end-to-end metric they should move, for the table
// the traced run prints.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  // setup_s: the median of the set-up repetitions, which are printed.
  void AddSetup(const std::vector<double>& seconds);
  // Every per-layer metric, in BENCHMARK.json order.
  void AddLayers(const LayerMetrics& layers);
  // Counts `count` failed operations and logs the first few reasons.
  void Fail(const std::string& why, uint64_t count = 1);

  uint64_t attempted = 0;
  uint64_t failed = 0;

  void PrintLayerTable(const std::string& workload) const;
  // The result line: {"correct":..,"attempted":..,"failed":..,"metrics":..}.
  // Returns false (and prints nothing) if any value is not finite.
  bool PrintResult() const;

 private:
  struct Row {
    std::string name;
    double value = 0.0;
    std::string unit;
    std::string moves;
  };
  void AddLayer(const std::string& name, double value, const std::string& unit,
                const std::string& moves);

  std::vector<Row> rows_;
  int logged_ = 0;
};

// Order statistics. Percentile uses the nearest-rank rule on a sorted copy
// and reads 0 for no samples (a stage the run never entered).
double Median(std::vector<double> values);
double Percentile(std::vector<double> values, double q);
// p99 is meaningful only with at least 10 samples beyond it; warns on
// stderr when a run that has samples is too short for that.
double P99(const std::vector<double>& values, const char* what);
double Sum(const std::vector<double>& values);
// part / whole, or 0 when nothing was counted.
double Ratio(double part, double whole);
// Geometric mean of the finite positive values; 0 when there are none.
double Geomean(const std::vector<double>& values);

// Seeded Fisher-Yates permutation of [0, n).
std::vector<size_t> SeededOrder(size_t n, uint64_t seed);
// Mixes a workload seed with a stream tag, so draws stay independent.
uint64_t MixSeed(uint64_t seed, uint64_t stream);

double PeakRssMb();
double ProcessCpuSeconds();

// /proc/stat snapshot: steal and total ticks of one CPU and of all CPUs.
struct CpuTicks {
  uint64_t cpu_steal = 0;
  uint64_t cpu_total = 0;
  uint64_t all_steal = 0;
  uint64_t all_total = 0;
};
CpuTicks ReadCpuTicks(int cpu);

// A host span with its self time (duration minus its direct children on
// the same thread) and its parent's index (-1 at the top).
struct SpanNode {
  const char* name = "";
  double dur_us = 0.0;
  double self_us = 0.0;
  int parent = -1;
};
std::vector<SpanNode> BuildSpanTree(const std::vector<alcop::obs::TraceSpan>& spans);

// Per-call durations (us) of the compile-path stage spans. Every workload
// compiles kernels through the sim cache, so every traced run fills these.
struct StageSamples {
  std::vector<double> detect;     // detect spans
  std::vector<double> lower;      // lower spans
  std::vector<double> create;     // self time of compile-kernel: building the Schedule
  std::vector<double> transform;  // transform spans
  std::vector<double> build;      // sim-compile spans
  std::vector<double> replay;     // replay spans
  // Sim-cache work outside the stage spans: the self time of `wrapper`
  // (the span around one compile call), or nothing when it is null.
  std::vector<double> cache;

  void Add(const std::vector<SpanNode>& nodes, const char* wrapper);
};

// Every per-layer metric of BENCHMARK.json. Each workload's traced run
// fills the layers its path crosses; a layer it does not cross (the tuner
// outside tune-fig10, serving and persist outside serve-mixed) reads 0 and
// has no end-to-end target in the table.
struct LayerMetrics {
  bool tuner_on_path = false;
  double refit_ms = 0.0;
  double refits = 0.0;
  double propose_ms = 0.0;
  double tuner_other_ms = 0.0;
  double measure_ms = 0.0;
  double trials = 0.0;
  double tuner_feasible_ratio = 0.0;
  double pruned_static = 0.0;

  StageSamples stages;
  double program_ops = 0.0;         // mean MicroOpProgram::TotalOps
  double sim_feasible_ratio = 0.0;  // feasible compiles / compiles
  double programs_per_skeleton = 0.0;
  double resident_mb = 0.0;
  double evictions = 0.0;
  double hit_rate = 0.0;  // compile calls answered from the timing cache

  bool serving_on_path = false;
  double hot_on_slow = 0.0;
  std::vector<double> fast_queue_us, fast_service_us, slow_queue_us, slow_service_us,
      transport_us;
  double load_ms = 0.0;
  double store_bytes = 0.0;

  double unattributed_fraction = 0.0;
  double trace_overhead_fraction = 0.0;
};

// Moves every recorded span into `sink` and clears the rings. A dropped
// span means a truncated trace: that counts as a failed operation.
void DrainTrace(std::vector<alcop::obs::TraceSpan>* sink, Report* report);

// Writes the spans as Chrome trace JSON with the program's own exporter.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<alcop::obs::TraceSpan>& spans);

// Records each measurement the tuner makes through TuneLikeAlcopd.
struct MeasureLog {
  std::vector<double> latency_ms;  // per call, cached or not
  uint64_t calls = 0;
  uint64_t finite = 0;
  // Feasible measured (operator, config) pairs, when `keep_feasible` is set.
  bool keep_feasible = false;
  std::vector<std::pair<alcop::schedule::GemmOp, alcop::schedule::ScheduleConfig>> feasible;
};

struct TunedOp {
  alcop::schedule::ScheduleConfig config;
  double cycles = 0.0;  // +inf when no trial was feasible
  size_t trials = 0;
  double seconds = 0.0;
};

// Tunes one operator the way alcopd tunes a shape it has not seen:
// MakeSimulatorTask with the default space, FindWarmStart from `store`,
// XgbTuner with analytical pre-training, the daemon's default 32 trials and
// `seed`, then StoreTuning into `store`. Records bench.* spans around its
// steps (no-ops while tracing is off) and, with a log, every measurement.
TunedOp TuneLikeAlcopd(const alcop::schedule::GemmOp& op, const alcop::target::GpuSpec& spec,
                       uint64_t seed, alcop::tuner::TuningStore* store, MeasureLog* log);

// The reference cycle count as the oracle reports it (perturbed by one ulp
// in the negative self-test).
double OracleCycles(double cycles, const Options& options);
bool SameBits(double a, double b);

// Interpreter oracle for one (operator, schedule): validation, compile,
// InterpretKernel and the static verifier. `feasible`/`cycles` are what
// the measured path returned. Returns an empty string when it agrees.
std::string CheckAgainstInterpreter(const alcop::schedule::GemmOp& op,
                                    const alcop::schedule::ScheduleConfig& config,
                                    const alcop::target::GpuSpec& spec,
                                    bool feasible, double cycles,
                                    const Options& options);

// Workloads.
void RunTuneFig10(const Options& options, Report* report);
void RunCompileCold(const Options& options, Report* report);
void RunServeMixed(const Options& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
