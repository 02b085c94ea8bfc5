// alcop_cli — command-line driver for the whole stack.
//
//   alcop_cli compile  WORKLOAD        compile + print pipelined IR & timing
//   alcop_cli tune     WORKLOAD [--trials N] [--log FILE] [--model-topk N]
//                                      model-assisted tuning of N trials
//                                      (default 50), print the workload
//                                      and the winner; exit 1 when no
//                                      trial measured feasible;
//                                      --model-topk simulates only the
//                                      analytical model's N favorites
//                                      (plus an exploration tail)
//   alcop_cli timeline WORKLOAD        render the execution timeline
//   alcop_cli ops                      list the benchmark operator suite
//   alcop_cli models                   list the end-to-end model graphs
//   alcop_cli parse    FILE            parse a textual IR file, validate by
//                                      re-printing it (round-trip check)
//   alcop_cli verify   FILE [--json]   statically verify the pipeline
//                                      synchronization of a textual IR file
//                                      (exit 1 on errors; see src/verify/);
//                                      --json emits the shared diagnostic
//                                      JSON schema (same renderer as lint)
//   alcop_cli lint     WORKLOAD|FILE [--json] [--no-swizzle]
//                                      run the static analysis framework
//                                      (src/analysis/): bounds proofs,
//                                      region-level race detection, bank
//                                      conflicts, occupancy feasibility.
//                                      A workload is compiled with its best
//                                      schedule first; a .tir file is
//                                      linted as written (with source
//                                      spans). Exit 1 on L-code errors.
//   alcop_cli profile  WORKLOAD [--json] [--trace FILE] [--counters]
//                                      full observability report: per-warp
//                                      stall attribution, pipe utilization,
//                                      bottleneck verdict, PMU counters,
//                                      host metrics; --trace exports a
//                                      Chrome/Perfetto trace with host
//                                      spans and the simulated-GPU
//                                      timeline; --counters prints the PMU
//                                      table (--json always embeds the
//                                      counter block). One run of the
//                                      reference interpreter gives the
//                                      timing, the counters and the
//                                      profiled timeline.
//   alcop_cli calibrate WORKLOAD [--json]
//                                      audit the Table-I analytical model
//                                      against PMU/stall measurements:
//                                      per-term relative error, roofline
//                                      regime, bottleneck-verdict
//                                      cross-check.
//   alcop_cli calibrate --fit          grid-search the analytical model's
//                                      two fitted constants over every 8th
//                                      config of the Fig. 10 sweep; exits
//                                      1 if the spec's checked-in
//                                      constants are stale.
//   alcop_cli cache    [load|clear] [--json] [--path FILE]
//                                      load the on-disk sim cache (the
//                                      default) and report what it held,
//                                      or remove the file. The path
//                                      defaults to $ALCOP_CACHE_DIR/
//                                      sim_cache.alcp; load exits 1 when
//                                      the file is missing or incompatible
//                                      (wrong version/spec/fitted
//                                      constants). A daemon saves its
//                                      cache there at shutdown or on
//                                      `client SOCKET persist`.
//   alcop_cli serve    SOCKET [--trials N] [--seed N] [--no-warm]
//                             [--cache FILE] [--no-persist] [--budget B]
//                             [--http PORT] [--access-log FILE]
//                             [--flight-depth N] [--snapshot-interval MS]
//                             [--watchdog-ms MS] [--log-level LEVEL]
//                             [--log-file FILE]
//                                      run alcopd on a unix socket: the
//                                      long-lived tuning service (fast
//                                      lane for cache hits, slow lane
//                                      for compiles and searches);
//                                      loads the on-disk cache at start,
//                                      persists at shutdown. Stop it with
//                                      `client SOCKET shutdown`.
//                                      --http adds a loopback HTTP front
//                                      end (0 = ephemeral port): GET
//                                      /metrics (Prometheus), /healthz,
//                                      /debug/{requests,timeseries,trace,
//                                      log}, POST /v1/<method>.
//                                      --access-log writes one JSONL line
//                                      per request. --flight-depth sizes
//                                      the request flight recorder,
//                                      --snapshot-interval the periodic
//                                      metrics time series (0 = off),
//                                      --watchdog-ms the stalled-lane
//                                      threshold.
//                                      --log-level (or $ALCOP_LOG_LEVEL)
//                                      is debug|info|warn|error|off;
//                                      --log-file appends the JSONL log.
//   alcop_cli client   SOCKET METHOD [...]
//                                      talk to a running alcopd:
//                                        ping|stats|persist|load|shutdown
//                                        tune M N K [batch] [--trials N]
//                                             [--no-warm] [--force]
//                                        compile|profile M N K [batch]
//                                             --tb M,N,K [--warp M,N,K]
//                                             [--smem S] [--reg R]
//                                             [--split-k S]
//                                        debug [requests|timeseries|log|
//                                             trace] [N] [--client C]
//                                             [--lane L] [--outcome O]
//                                             [--metric M]
//                                        '{...}'   raw protocol JSON
//                                      prints the response payload; exit 0
//                                      iff the daemon answered ok:true.
//
// A WORKLOAD is a benchmark op name (see `ops`) or M N K [batch], every
// size a whole number > 0 that fits 64 bits. Every other number, flag
// values and client sizes included, is read the same way and must fit
// its flag's range; a bad one exits 1 with one line naming it. serve,
// parse, verify, lint and cache also exit 1 with one line naming an
// unknown flag, a value flag given last without its value, or a second
// operand, before they bind a socket or read a file. compile,
// timeline, lint, profile and calibrate use the best schedule found by a
// 16-trial analytical ranking.
#include <algorithm>
#include <cctype>
#include <charconv>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/pass.h"
#include "ir/parser.h"
#include "ir/printer.h"
#include "obs/chrome_trace.h"
#include "obs/flight.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "obs/stall.h"
#include "obs/trace.h"
#include "perfmodel/calibration.h"
#include "serving/client.h"
#include "serving/persist.h"
#include "serving/protocol.h"
#include "serving/server.h"
#include "support/check.h"
#include "support/json.h"
#include "sim/launch.h"
#include "sim/pmu.h"
#include "sim/sim_cache.h"
#include "sim/timeline.h"
#include "sim/traffic_report.h"
#include "target/gpu_spec.h"
#include "tuner/records.h"
#include "tuner/strategy.h"
#include "verify/verifier.h"
#include "workloads/models.h"
#include "workloads/ops.h"

using namespace alcop;  // NOLINT(build/namespaces) - CLI driver

namespace {

// The simulator-measured tuning task for `op`; exits 1 with one line when
// no schedule fits the operator.
tuner::TuningTask TaskOrExit(const schedule::GemmOp& op,
                             const target::GpuSpec& spec,
                             const tuner::SpaceOptions& space = {}) {
  tuner::TuningTask task = tuner::MakeSimulatorTask(op, spec, space);
  if (task.space.empty()) {
    std::fprintf(stderr, "no valid schedule for %s\n",
                 tuner::OpKey(op).c_str());
    std::exit(1);
  }
  return task;
}

schedule::ScheduleConfig BestConfig(const schedule::GemmOp& op,
                                    const target::GpuSpec& spec,
                                    size_t trials) {
  tuner::TuningTask task = TaskOrExit(op, spec);
  tuner::TuningResult result = tuner::AnalyticalRanking(task, trials);
  size_t best = result.BestIndex(task);
  if (best >= task.space.size()) best = 0;
  return task.space[best];
}

// True when all of `text` is a decimal number that fits an int64_t.
bool ParseSize(const char* text, int64_t* value) {
  const char* end = text + std::strlen(text);
  auto [ptr, ec] = std::from_chars(text, end, *value);
  return ec == std::errc() && ptr == end;
}

// Reads `text`, the value of `what`, into `*value`: a whole number (see
// ParseSize) from `min` to `max`, which defaults to the most T holds.
// Otherwise prints one line that names the value and returns false.
template <typename T>
bool ParseNumber(const char* what, const char* text, int64_t min, T* value,
                 int64_t max = static_cast<int64_t>(std::min<uint64_t>(
                     std::numeric_limits<T>::max(),
                     std::numeric_limits<int64_t>::max()))) {
  int64_t parsed = 0;
  if (ParseSize(text, &parsed) && parsed >= min && parsed <= max) {
    *value = static_cast<T>(parsed);
    return true;
  }
  std::fprintf(stderr, "%s expects a whole number in [%lld, %lld], got '%s'\n",
               what, (long long)min, (long long)max, text);
  return false;
}

// M N K [batch]: three or four whole numbers > 0, the batch 1 when absent.
// Otherwise prints one line and returns false.
bool ParseSizes(const std::vector<char*>& positional, int64_t sizes[4]) {
  if (positional.size() != 3 && positional.size() != 4) {
    std::fprintf(stderr, "expected M N K [batch]\n");
    return false;
  }
  sizes[3] = 1;
  for (size_t i = 0; i < positional.size(); ++i) {
    if (!ParseNumber("M N K [batch]", positional[i], 1, &sizes[i])) {
      return false;
    }
  }
  return true;
}

// WORKLOAD positionals: a benchmark op name (see `ops`) or M N K [batch].
bool ParseWorkload(const std::vector<char*>& positional,
                   schedule::GemmOp* op) {
  if (!positional.empty() &&
      std::isdigit(static_cast<unsigned char>(positional[0][0]))) {
    int64_t sizes[4];
    if (!ParseSizes(positional, sizes)) return false;
    auto [m, n, k, batch] = sizes;
    *op = batch > 1 ? schedule::MakeBatchMatmul("cli", batch, m, n, k)
                    : schedule::MakeMatmul("cli", m, n, k);
    return true;
  }
  if (positional.size() != 1) {
    std::fprintf(stderr,
                 "expected a workload: a benchmark op name (see `alcop_cli "
                 "ops`) or M N K [batch]\n");
    return false;
  }
  try {
    *op = workloads::FindOp(positional[0]);
  } catch (const CheckError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return false;
  }
  return true;
}

// Checks the arguments a command did not read as flags: none may look like
// a flag (an unknown one, or a value flag given last without its value),
// and at most `max_operands` may be left. Otherwise prints one line that
// names the first offending argument and returns false.
bool CheckOperands(const char* command, const std::vector<char*>& positional,
                   size_t max_operands = 1) {
  for (const char* arg : positional) {
    if (std::strncmp(arg, "--", 2) == 0) {
      std::fprintf(stderr, "%s: unknown flag or missing value '%s'\n",
                   command, arg);
      return false;
    }
  }
  if (positional.size() > max_operands) {
    std::fprintf(stderr, "%s: unexpected argument '%s'\n", command,
                 positional[max_operands]);
    return false;
  }
  return true;
}

// Reads and parses the textual IR file at `path`; prints one line and
// returns false when it cannot be opened or does not parse. `text`, when
// given, receives the file as read.
bool ParseIrFile(const char* path, ir::Stmt* program,
                 std::string* text = nullptr) {
  std::ifstream file(path);
  if (!file) {
    std::fprintf(stderr, "cannot open '%s'\n", path);
    return false;
  }
  std::ostringstream content;
  content << file.rdbuf();
  try {
    *program = ir::ParseStmt(content.str());
  } catch (const CheckError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return false;
  }
  if (text != nullptr) *text = content.str();
  return true;
}

const char* TrialEventName(tuner::TrialEvent::Kind kind) {
  switch (kind) {
    case tuner::TrialEvent::Kind::kProposed: return "proposed";
    case tuner::TrialEvent::Kind::kMeasured: return "measured";
    case tuner::TrialEvent::Kind::kRefit: return "refit";
  }
  return "unknown";
}

int CmdCompile(int argc, char** argv) {
  target::GpuSpec spec = target::AmpereSpec();
  schedule::GemmOp op;
  if (!ParseWorkload(std::vector<char*>(argv + 2, argv + argc), &op)) return 1;
  schedule::ScheduleConfig config = BestConfig(op, spec, 16);
  sim::CompiledKernel compiled = sim::CompileKernel(op, config, spec);
  sim::KernelTiming timing = sim::SimulateKernel(compiled, spec);

  std::printf("schedule: %s\n", config.ToString().c_str());
  for (const pipeline::DetectionEntry& entry : compiled.detection.entries) {
    int stages = entry.buffer.find("shared") != std::string::npos
                     ? config.smem_stages
                     : config.reg_stages;
    std::string status;
    if (!entry.eligible) {
      status = "not pipelinable (" + entry.reason + ")";
    } else if (stages < 2) {
      status = "pipelinable, 1 stage selected";
    } else {
      status = "pipelined with " + std::to_string(stages) + " stages";
    }
    std::printf("  %-10s %s\n", entry.buffer.c_str(), status.c_str());
  }
  std::printf("timing: %.0f cycles, %.1f us, %.1f TFLOP/s, %d tb/SM, %ld "
              "batches\n",
              timing.cycles, timing.microseconds, timing.tflops,
              timing.threadblocks_per_sm, timing.batches);
  std::printf("%s\n\n",
              sim::AnalyzeKernelTraffic(compiled, spec).ToString().c_str());
  std::printf("%s", ir::ToString(compiled.transformed.stmt).c_str());
  return 0;
}

int CmdTune(int argc, char** argv) {
  // tune WORKLOAD [--trials N] [--log FILE] [--model-topk N]; --log streams
  // one JSON object per search event (proposals with GBT + analytical
  // scores, measurements, refits with rank accuracy); --model-topk prunes
  // the space to the analytical model's N favorites plus an exploration
  // tail (N=0 disables; bare --model-topk uses the default cut).
  std::string log_path;
  int model_topk = 0;
  size_t trials = 50;
  std::vector<char*> positional;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trials") == 0 && i + 1 < argc) {
      if (!ParseNumber("--trials", argv[++i], 0, &trials)) return 1;
    } else if (std::strcmp(argv[i], "--log") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--log expects an output file\n");
        return 1;
      }
      log_path = argv[++i];
    } else if (std::strcmp(argv[i], "--model-topk") == 0) {
      model_topk = tuner::SpaceOptions::kDefaultModelTopK;
      if (i + 1 < argc && std::isdigit(argv[i + 1][0]) &&
          !ParseNumber("--model-topk", argv[++i], 0, &model_topk)) {
        return 1;
      }
    } else {
      positional.push_back(argv[i]);
    }
  }
  target::GpuSpec spec = target::AmpereSpec();
  schedule::GemmOp op;
  if (!ParseWorkload(positional, &op)) return 1;

  tuner::SpaceOptions space_options;
  space_options.model_topk = model_topk;
  tuner::TuningTask task = TaskOrExit(op, spec, space_options);
  tuner::XgbOptions options;
  options.pretrain_with_analytical = true;
  std::ofstream log;
  if (!log_path.empty()) {
    log.open(log_path);
    if (!log) {
      std::fprintf(stderr, "cannot write '%s'\n", log_path.c_str());
      return 1;
    }
    options.logger = [&log](const tuner::TrialEvent& e) {
      log << "{\"event\": \"" << TrialEventName(e.kind)
          << "\", \"round\": " << e.round;
      switch (e.kind) {
        case tuner::TrialEvent::Kind::kProposed:
          log << ", \"trial\": " << e.trial
              << ", \"space_index\": " << e.space_index << ", \"config\": \""
              << support::JsonEscape(e.config) << "\", \"predicted_score\": "
              << support::JsonNumber(e.predicted_score)
              << ", \"analytical_cycles\": "
              << support::JsonNumber(e.analytical_cycles);
          break;
        case tuner::TrialEvent::Kind::kMeasured:
          log << ", \"trial\": " << e.trial
              << ", \"space_index\": " << e.space_index
              << ", \"measured_cycles\": "
              << support::JsonNumber(e.measured_cycles);
          break;
        case tuner::TrialEvent::Kind::kRefit:
          log << ", \"training_size\": " << e.training_size
              << ", \"rank_accuracy\": "
              << support::JsonNumber(e.rank_accuracy);
          break;
      }
      log << "}\n";
    };
  }
  tuner::TuningResult result = tuner::XgbTuner(task, trials, options);
  size_t best = result.BestIndex(task);
  if (best >= task.space.size()) {
    std::fprintf(stderr, "no feasible schedule in %zu trials of %s\n",
                 result.trials.size(), tuner::OpKey(op).c_str());
    return 1;
  }
  std::printf("workload: %s (%s)\n", op.name.c_str(),
              tuner::OpKey(op).c_str());
  std::printf("space: %zu schedules; %zu trials\n", task.space.size(),
              result.trials.size());
  std::printf("best: %s  (%.0f cycles)\n",
              task.space[best].ToString().c_str(),
              result.BestInFirstK(result.trials.size()));
  if (!log_path.empty()) {
    std::fprintf(stderr, "wrote search log to %s\n", log_path.c_str());
  }
  return 0;
}

int CmdTimeline(int argc, char** argv) {
  target::GpuSpec spec = target::AmpereSpec();
  schedule::GemmOp op;
  if (!ParseWorkload(std::vector<char*>(argv + 2, argv + argc), &op)) return 1;
  schedule::ScheduleConfig config = BestConfig(op, spec, 16);
  sim::BatchTimeline batch;
  sim::KernelTiming timing = sim::InterpretKernel(
      sim::CompileKernel(op, config, spec), spec, nullptr, &batch);
  if (!timing.feasible) {
    std::fprintf(stderr, "infeasible schedule: %s\n", timing.reason.c_str());
    return 1;
  }
  std::printf("schedule: %s\n%s", config.ToString().c_str(),
              sim::RenderTimeline(batch.timeline, batch.num_warps).c_str());
  return 0;
}

int CmdOps() {
  std::printf("%-16s %-12s %8s %8s %8s %8s\n", "name", "family", "batch", "M",
              "N", "K");
  for (const schedule::GemmOp& op : workloads::BenchmarkOps()) {
    std::printf("%-16s %-12s %8ld %8ld %8ld %8ld\n", op.name.c_str(),
                schedule::OpFamilyName(op.family), op.batch, op.m, op.n, op.k);
  }
  return 0;
}

int CmdModels() {
  for (const workloads::ModelGraph& model : workloads::Models()) {
    int64_t flops = 0;
    for (const workloads::LayerOp& layer : model.ops) {
      flops += layer.count * layer.op.Flops();
    }
    std::printf("%-12s %3zu distinct ops, %6.1f GFLOP, %5.1f MB elementwise "
                "traffic (fused)\n",
                model.name.c_str(), model.ops.size(),
                static_cast<double>(flops) / 1e9,
                model.ewise_bytes_fused / 1e6);
  }
  return 0;
}

int CmdParse(int argc, char** argv) {
  std::vector<char*> positional(argv + 2, argv + argc);
  if (!CheckOperands("parse", positional)) return 1;
  if (positional.empty()) {
    std::fprintf(stderr, "expected a file path\n");
    return 1;
  }
  std::string text;
  ir::Stmt program;
  if (!ParseIrFile(positional[0], &program, &text)) return 1;
  std::string reprinted = ir::ToString(program);
  std::printf("%s", reprinted.c_str());
  std::fprintf(stderr, "round-trip: %s\n",
               reprinted == text ? "exact" : "normalized");
  return 0;
}

int CmdVerify(int argc, char** argv) {
  bool json = false;
  std::vector<char*> positional;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (!CheckOperands("verify", positional)) return 1;
  if (positional.empty()) {
    std::fprintf(stderr, "expected a file path\n");
    return 1;
  }
  const char* path = positional[0];
  ir::Stmt program;
  if (!ParseIrFile(path, &program)) return 1;
  verify::VerifyResult result = verify::VerifyProgram(program);
  if (json) {
    size_t errors = 0;
    for (const verify::Diagnostic& d : result.diagnostics) {
      if (d.severity == verify::Severity::kError) ++errors;
    }
    std::printf(
        "{\"command\": \"verify\", \"file\": \"%s\", \"clean\": %s, "
        "\"errors\": %zu, \"step_limit_reached\": %s,\n \"diagnostics\": "
        "%s}\n",
        support::JsonEscape(path).c_str(), result.Clean() ? "true" : "false",
        errors,
        result.reached_step_limit ? "true" : "false",
        verify::DiagnosticsToJson(result.diagnostics).c_str());
    return result.HasErrors() ? 1 : 0;
  }
  if (result.Clean()) {
    std::printf("%s: verified, no pipeline-synchronization issues\n", path);
    return 0;
  }
  std::printf("%s", result.Render().c_str());
  if (result.reached_step_limit) {
    std::fprintf(stderr, "warning: step limit reached, verdict incomplete\n");
  }
  return result.HasErrors() ? 1 : 0;
}

int CmdLint(int argc, char** argv) {
  // lint WORKLOAD|FILE [--json] [--no-swizzle]; a readable file is linted
  // as textual IR (source spans in diagnostics), anything else resolves
  // as a workload and lints the compiled best schedule.
  bool json = false;
  analysis::LintOptions options;
  std::vector<char*> positional;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--no-swizzle") == 0) {
      options.swizzle = false;
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.empty()) {
    std::fprintf(stderr,
                 "expected a workload (see `alcop_cli ops`), M N K [batch], "
                 "or a .tir file\n");
    return 1;
  }
  // A file or an op name is one operand; sizes are M N K [batch].
  bool sizes = std::isdigit(static_cast<unsigned char>(positional[0][0]));
  if (!CheckOperands("lint", positional, sizes ? 4 : 1)) return 1;

  std::string subject = positional[0];
  std::string schedule_str;
  ir::Stmt program;
  if (std::ifstream(positional[0])) {
    if (!ParseIrFile(positional[0], &program)) return 1;
  } else {
    target::GpuSpec spec = target::AmpereSpec();
    schedule::GemmOp op;
    if (!ParseWorkload(positional, &op)) return 1;
    schedule::ScheduleConfig config = BestConfig(op, spec, 16);
    sim::CompiledKernel compiled = sim::CompileKernel(op, config, spec);
    program = compiled.transformed.stmt;
    subject = op.name;
    schedule_str = config.ToString();
    options.swizzle = config.swizzle;
  }

  analysis::LintResult result = analysis::LintProgram(program, options);

  if (json) {
    std::ostringstream out;
    out << "{\"command\": \"lint\", \"subject\": \""
        << support::JsonEscape(subject) << "\", \"schedule\": \""
        << support::JsonEscape(schedule_str) << "\""
        << ", \"clean\": " << (result.Clean() ? "true" : "false")
        << ", \"errors\": " << (result.HasErrors() ? "true" : "false")
        << ", \"step_limit_reached\": "
        << (result.reached_step_limit ? "true" : "false");
    if (result.feasibility.has_value()) {
      const schedule::StaticFeasibility& f = *result.feasibility;
      out << ",\n \"feasibility\": {\"feasible\": "
          << (f.feasible ? "true" : "false")
          << ", \"reason\": \"" << support::JsonEscape(f.reason) << "\""
          << ", \"smem_bytes\": " << f.resources.smem_bytes
          << ", \"reg_bytes\": " << f.resources.reg_bytes
          << ", \"warps\": " << f.resources.warps
          << ", \"threadblocks_per_sm\": " << f.occupancy.threadblocks_per_sm
          << ", \"limiter\": \""
          << support::JsonEscape(target::LimiterName(f.occupancy.limiter))
          << "\"}";
    }
    if (result.bank.has_value()) {
      const analysis::BankReport& b = *result.bank;
      out << ",\n \"bank\": {\"max_degree\": " << b.max_degree
          << ", \"sim_divisor\": " << support::JsonNumber(b.sim_divisor)
          << ", \"predicted_lds_read_bytes\": "
          << support::JsonNumber(b.predicted_lds_read_bytes)
          << ", \"accesses\": " << b.accesses.size() << "}";
    }
    out << ",\n \"passes\": [";
    for (size_t i = 0; i < result.pass_stats.size(); ++i) {
      const analysis::PassStats& p = result.pass_stats[i];
      if (i > 0) out << ", ";
      out << "{\"name\": \"" << support::JsonEscape(p.name) << "\""
          << ", \"findings\": " << p.findings
          << ", \"millis\": " << support::JsonNumber(p.millis) << "}";
    }
    out << "],\n \"diagnostics\": "
        << verify::DiagnosticsToJson(result.diagnostics) << "}";
    std::printf("%s\n", out.str().c_str());
    return result.HasErrors() ? 1 : 0;
  }

  std::printf("lint: %s", subject.c_str());
  if (!schedule_str.empty()) {
    std::printf("  schedule: %s", schedule_str.c_str());
  }
  std::printf("\n");
  for (const analysis::PassStats& p : result.pass_stats) {
    std::printf("  %-20s %3zu finding%s  %7.2f ms\n", p.name.c_str(),
                p.findings, p.findings == 1 ? " " : "s", p.millis);
  }
  if (result.feasibility.has_value()) {
    const schedule::StaticFeasibility& f = *result.feasibility;
    if (f.feasible) {
      std::printf("feasibility: fits, %d threadblock(s)/SM (limiter: %s); "
                  "%ld B shared, %ld B registers, %d warps\n",
                  f.occupancy.threadblocks_per_sm,
                  target::LimiterName(f.occupancy.limiter),
                  f.resources.smem_bytes, f.resources.reg_bytes,
                  f.resources.warps);
    } else {
      std::printf("feasibility: %s\n", f.reason.c_str());
    }
  }
  if (result.bank.has_value()) {
    const analysis::BankReport& b = *result.bank;
    std::printf("bank: %zu shared access(es), max conflict degree %d "
                "(%s), LDS divisor %.1f, predicted %.1f MB shared->reg\n",
                b.accesses.size(), b.max_degree,
                options.swizzle ? "swizzled" : "unswizzled", b.sim_divisor,
                b.predicted_lds_read_bytes / 1e6);
  }
  if (result.Clean()) {
    std::printf("clean: no findings\n");
  } else {
    std::printf("%s", result.Render().c_str());
  }
  return result.HasErrors() ? 1 : 0;
}

int CmdProfile(int argc, char** argv) {
  // Split flags from positionals:
  // profile WORKLOAD [--json] [--trace FILE] [--counters].
  bool json = false;
  bool counters = false;
  std::string trace_path;
  std::vector<char*> positional;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--counters") == 0) {
      counters = true;
    } else if (std::strcmp(argv[i], "--trace") == 0) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--trace expects an output file\n");
        return 1;
      }
      trace_path = argv[++i];
    } else {
      positional.push_back(argv[i]);
    }
  }
  target::GpuSpec spec = target::AmpereSpec();
  schedule::GemmOp op;
  if (!ParseWorkload(positional, &op)) return 1;

  // Tracing must be on before any instrumented phase runs so the exported
  // file carries the whole pipeline: tuner rounds, compile phases, replay.
  obs::SetTraceEnabled(true);
  obs::ClearTrace();

  schedule::ScheduleConfig config = BestConfig(op, spec, 16);
  // The reference interpreter gives the timing, the PMU counters and the
  // profiled timeline of the first wave in one run.
  sim::KernelPmu pmu;
  sim::BatchTimeline batch;
  sim::KernelTiming timing = sim::InterpretKernel(
      sim::CompileKernel(op, config, spec), spec, &pmu, &batch);
  if (!timing.feasible) {
    std::fprintf(stderr, "infeasible schedule: %s\n", timing.reason.c_str());
    return 1;
  }

  obs::KernelProfile profile = obs::ProfileBatch(batch);
  obs::AttachModelVerdict(&profile, op, config, spec);

  if (!trace_path.empty()) {
    obs::ChromeTraceWriter writer;
    obs::AppendHostSpans(&writer, obs::CollectTraceSpans());
    obs::AppendSimTimeline(&writer, batch.timeline, batch.num_warps);
    std::ofstream out(trace_path);
    if (!out) {
      std::fprintf(stderr, "cannot write '%s'\n", trace_path.c_str());
      return 1;
    }
    out << writer.ToJson();
    std::fprintf(stderr,
                 "wrote %zu trace events to %s (load in chrome://tracing or "
                 "ui.perfetto.dev)\n",
                 writer.num_events(), trace_path.c_str());
  }

  if (json) {
    std::printf("%s\n", obs::ProfileToJson(profile, &timing, &pmu).c_str());
    return 0;
  }
  std::printf("workload: %s  schedule: %s\n", op.name.c_str(),
              config.ToString().c_str());
  std::printf("timing: %.0f cycles, %.1f us, %.1f TFLOP/s\n", timing.cycles,
              timing.microseconds, timing.tflops);
  std::printf("%s", obs::RenderProfile(profile).c_str());
  if (counters) {
    std::printf("\n%s", sim::RenderPmu(pmu).c_str());
  }
  std::printf("\n--- host metrics ---\n");
  for (const auto& [name, value] :
       obs::FlattenSnapshot(obs::Registry::Global().Snapshot())) {
    std::printf("%s = %s\n", name.c_str(), support::JsonNumber(value).c_str());
  }
  return 0;
}

int CmdCalibrate(int argc, char** argv) {
  bool json = false;
  bool fit = false;
  std::vector<char*> positional;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--fit") == 0) {
      fit = true;
    } else {
      positional.push_back(argv[i]);
    }
  }
  target::GpuSpec spec = target::AmpereSpec();
  if (fit) {
    // Re-derive the spec's two model constants from the Fig. 10 suite and
    // report whether they match what the spec ships.
    if (json || !positional.empty()) {
      std::fprintf(stderr, "calibrate --fit takes no other argument\n");
      return 1;
    }
    perfmodel::ModelFitReport report =
        perfmodel::FitModelConstants(workloads::BenchmarkOps(), spec);
    std::printf(
        "model fit over %lld sweep samples: iter_overhead %.0f fill_scale "
        "%.2f (objective %.4f, mean |log err| %.4f)\n",
        static_cast<long long>(report.samples),
        report.fit.iter_overhead_cycles, report.fit.fill_scale,
        report.objective, report.mean_log_error);
    const target::ModelFit& shipped = spec.model_fit;
    bool matches =
        report.fit.iter_overhead_cycles == shipped.iter_overhead_cycles &&
        report.fit.fill_scale == shipped.fill_scale;
    std::printf("  spec '%s' checked-in constants: %s\n", spec.name.c_str(),
                matches ? "match" : "STALE (update target/gpu_spec.cc)");
    return matches ? 0 : 1;
  }
  schedule::GemmOp op;
  if (!ParseWorkload(positional, &op)) return 1;

  schedule::ScheduleConfig config = BestConfig(op, spec, 16);
  perfmodel::CalibrationResult result =
      perfmodel::CalibrateConfig(op, config, spec);
  if (!result.feasible) {
    std::fprintf(stderr, "infeasible schedule: %s\n", result.reason.c_str());
    return 1;
  }
  if (json) {
    std::printf("%s\n", perfmodel::CalibrationToJson(result).c_str());
    return 0;
  }
  std::printf("workload: %s  schedule: %s\n", op.name.c_str(),
              config.ToString().c_str());
  std::printf("cycles: %.0f measured, %.0f analytical\n",
              result.measured_cycles, result.predicted_cycles);
  std::printf("%-14s %14s %14s %9s\n", "term", "analytical", "measured",
              "rel-err");
  for (const perfmodel::TermError& term : result.terms) {
    std::printf("%-14s %14.1f %14.1f %8.1f%%\n", term.name.c_str(),
                term.analytical, term.measured, term.rel_error * 100.0);
  }
  const perfmodel::RooflinePoint& r = result.roofline;
  std::printf("roofline: %s-bound; AI %.1f dram / %.1f llc / %.1f lds "
              "flop/B; %.0f of %.0f flop/cycle (%.0f%% of roof)\n",
              r.regime.c_str(), r.ai_dram, r.ai_llc, r.ai_lds,
              r.attained_flops_per_cycle, r.roof_flops_per_cycle,
              r.efficiency * 100.0);
  std::printf("bottleneck model: %s-limited (roofline %s)\n",
              result.bottleneck_limiter.c_str(),
              result.roofline_agrees ? "agrees" : "disagrees");
  std::printf("stall profiler: %s (%s)\n", result.profile_verdict.c_str(),
              result.profile_agrees ? "agrees" : "disagrees");
  return 0;
}

int CmdCache(int argc, char** argv) {
  // cache [load|clear] [--json] [--path FILE]
  bool json = false;
  std::string path;
  std::vector<char*> positional;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--path") == 0 && i + 1 < argc) {
      path = argv[++i];
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (!CheckOperands("cache", positional)) return 1;
  std::string action = positional.empty() ? "load" : positional[0];
  if (action != "load" && action != "clear") {
    std::fprintf(stderr, "unknown cache action '%s' (load|clear)\n",
                 action.c_str());
    return 1;
  }
  if (path.empty()) path = serving::DefaultCachePath();
  if (path.empty()) {
    std::fprintf(stderr,
                 "no cache path: pass --path FILE or set ALCOP_CACHE_DIR\n");
    return 1;
  }

  if (action == "clear") {
    bool removed = std::remove(path.c_str()) == 0;
    if (json) {
      std::printf(
          "{\"command\": \"cache\", \"action\": \"clear\", \"path\": \"%s\", "
          "\"removed_file\": %s}\n",
          support::JsonEscape(path).c_str(), removed ? "true" : "false");
    } else {
      std::printf("%s %s\n", removed ? "removed" : "no file at", path.c_str());
    }
    return 0;
  }

  serving::PersistStats stats = serving::LoadCache(path, target::AmpereSpec());
  if (json) {
    std::printf(
        "{\"command\": \"cache\", \"action\": \"load\", \"path\": \"%s\", "
        "\"ok\": %s, \"error\": \"%s\",\n \"bytes\": %llu, "
        "\"timings\": %llu, \"tunings\": %llu, \"skipped\": %llu}\n",
        support::JsonEscape(path).c_str(), stats.ok ? "true" : "false",
        support::JsonEscape(stats.error).c_str(),
        (unsigned long long)stats.bytes, (unsigned long long)stats.timings,
        (unsigned long long)stats.tunings, (unsigned long long)stats.skipped);
    return stats.ok ? 0 : 1;
  }
  if (!stats.ok) {
    std::fprintf(stderr, "cache load failed: %s\n", stats.error.c_str());
    return 1;
  }
  std::printf("loaded %s: %llu B, %llu timings, %llu tunings (%llu skipped)\n",
              path.c_str(), (unsigned long long)stats.bytes,
              (unsigned long long)stats.timings,
              (unsigned long long)stats.tunings,
              (unsigned long long)stats.skipped);
  return 0;
}

int CmdServe(int argc, char** argv) {
  serving::ServerOptions options;
  options.spec = target::AmpereSpec();
  uint64_t budget = 0;
  std::string log_file;
  std::vector<char*> positional;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trials") == 0 && i + 1 < argc) {
      if (!ParseNumber("--trials", argv[++i], 0, &options.default_trials)) {
        return 1;
      }
    } else if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      if (!ParseNumber("--seed", argv[++i], 0, &options.seed)) return 1;
    } else if (std::strcmp(argv[i], "--no-warm") == 0) {
      options.warm_start = false;
    } else if (std::strcmp(argv[i], "--cache") == 0 && i + 1 < argc) {
      options.cache_path = argv[++i];
    } else if (std::strcmp(argv[i], "--no-persist") == 0) {
      options.persist_on_shutdown = false;
    } else if (std::strcmp(argv[i], "--budget") == 0 && i + 1 < argc) {
      if (!ParseNumber("--budget", argv[++i], 0, &budget)) return 1;
    } else if (std::strcmp(argv[i], "--http") == 0 && i + 1 < argc) {
      if (!ParseNumber("--http", argv[++i], -1, &options.http_port, 65535)) {
        return 1;
      }
    } else if (std::strcmp(argv[i], "--access-log") == 0 && i + 1 < argc) {
      options.access_log_path = argv[++i];
    } else if (std::strcmp(argv[i], "--flight-depth") == 0 && i + 1 < argc) {
      if (!ParseNumber("--flight-depth", argv[++i], 0,
                       &options.flight_depth)) {
        return 1;
      }
    } else if (std::strcmp(argv[i], "--snapshot-interval") == 0 &&
               i + 1 < argc) {
      if (!ParseNumber("--snapshot-interval", argv[++i], INT_MIN,
                       &options.snapshot_interval_ms)) {
        return 1;
      }
    } else if (std::strcmp(argv[i], "--watchdog-ms") == 0 && i + 1 < argc) {
      if (!ParseNumber("--watchdog-ms", argv[++i], INT_MIN,
                       &options.watchdog_stall_ms)) {
        return 1;
      }
    } else if (std::strcmp(argv[i], "--log-level") == 0 && i + 1 < argc) {
      obs::StructuredLog::Global().SetLevel(
          obs::ParseLogLevel(argv[++i], obs::LogLevel::kInfo));
    } else if (std::strcmp(argv[i], "--log-file") == 0 && i + 1 < argc) {
      log_file = argv[++i];
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (!CheckOperands("serve", positional)) return 1;
  if (positional.empty()) {
    std::fprintf(stderr, "expected a unix socket path\n");
    return 1;
  }
  options.socket_path = positional[0];
  if (budget != 0) sim::SetSimCacheBudgetBytes(budget);

  // The daemon's terminal chatter is the structured log itself: every
  // line the ring (and any --log-file sink) sees is echoed to stderr.
  obs::StructuredLog::Global().SetStderrEcho(true);
  if (!log_file.empty() && !obs::StructuredLog::Global().OpenFile(log_file)) {
    std::fprintf(stderr, "alcopd: cannot open log file %s\n",
                 log_file.c_str());
    return 1;
  }

  serving::Server server(std::move(options));
  std::string error;
  if (!server.Start(&error)) {
    obs::Log(obs::LogLevel::kError, "alcopd", "start failed",
             obs::LogFields().Str("error", error));
    return 1;
  }
  obs::Log(obs::LogLevel::kInfo, "alcopd", "listening",
           obs::LogFields()
               .Str("socket", server.options().socket_path)
               .Str("cache", server.options().cache_path.empty()
                                 ? "disabled"
                                 : server.options().cache_path));
  if (server.http_port() >= 0) {
    obs::Log(obs::LogLevel::kInfo, "alcopd", "http front end",
             obs::LogFields()
                 .Str("address",
                      "127.0.0.1:" + std::to_string(server.http_port()))
                 .Str("endpoints",
                      "/metrics /healthz /debug/* POST /v1/<method>"));
  }
  server.Wait();
  server.Stop();
  obs::Log(obs::LogLevel::kInfo, "alcopd", "exit",
           obs::LogFields().Uint("requests", server.requests_served()));
  obs::StructuredLog::Global().CloseFile();
  return 0;
}

// "128,64,32" -> JSON "[128,64,32]"; empty unless `text` is three whole
// numbers > 0 (each read with ParseSize) joined by commas.
std::string TripleToJson(const char* text) {
  std::string out;
  for (int i = 0; i < 3; ++i) {
    const char* end = i < 2 ? std::strchr(text, ',') : std::strchr(text, 0);
    int64_t value = 0;
    if (end == nullptr || !ParseSize(std::string(text, end).c_str(), &value) ||
        value <= 0) {
      return "";
    }
    out += (i == 0 ? "[" : ",") + std::to_string(value);
    text = end + 1;
  }
  return out + "]";
}

int CmdClient(int argc, char** argv) {
  if (argc < 4) {
    std::fprintf(stderr,
                 "usage: alcop_cli client SOCKET METHOD [...] (see header "
                 "comment)\n");
    return 1;
  }
  const char* socket_path = argv[2];
  std::string method = argv[3];
  std::string payload;
  if (method[0] == '{') {
    payload = method;  // raw protocol JSON, sent verbatim
  } else if (method == "ping" || method == "stats" || method == "persist" ||
             method == "load" || method == "shutdown") {
    payload = "{\"id\":1,\"method\":\"" + method + "\"}";
  } else if (method == "debug") {
    // client SOCKET debug [requests|timeseries|log|trace] [N]
    //   [--client C] [--lane L] [--outcome O] [--metric M]
    std::string what = "requests";
    std::ostringstream extra;
    int64_t n = 0;
    for (int i = 4; i < argc; ++i) {
      bool flag = i + 1 < argc &&
                  (std::strcmp(argv[i], "--client") == 0 ||
                   std::strcmp(argv[i], "--lane") == 0 ||
                   std::strcmp(argv[i], "--outcome") == 0 ||
                   std::strcmp(argv[i], "--metric") == 0);
      if (flag) {
        extra << ",\"" << (argv[i] + 2) << "\":\""
              << support::JsonEscape(argv[i + 1]) << "\"";
        ++i;
      } else if (std::isdigit(static_cast<unsigned char>(argv[i][0]))) {
        if (!ParseNumber("debug N", argv[i], 0, &n)) return 1;
      } else {
        what = argv[i];
      }
    }
    std::ostringstream out;
    out << "{\"id\":1,\"method\":\"debug\",\"what\":\""
        << support::JsonEscape(what) << "\"";
    if (n > 0) out << ",\"n\":" << n;
    out << extra.str() << "}";
    payload = out.str();
  } else if (method == "tune" || method == "compile" || method == "profile") {
    std::string tb, warp;
    int smem = 0, reg = 0, split_k = 0;
    int64_t trials = 0;
    bool no_warm = false, force = false;
    std::vector<char*> positional;
    for (int i = 4; i < argc; ++i) {
      if (std::strcmp(argv[i], "--tb") == 0 && i + 1 < argc) {
        tb = TripleToJson(argv[++i]);
        if (tb.empty()) {
          std::fprintf(stderr, "--tb expects M,N,K, got '%s'\n", argv[i]);
          return 1;
        }
      } else if (std::strcmp(argv[i], "--warp") == 0 && i + 1 < argc) {
        warp = TripleToJson(argv[++i]);
        if (warp.empty()) {
          std::fprintf(stderr, "--warp expects M,N,K, got '%s'\n", argv[i]);
          return 1;
        }
      } else if (std::strcmp(argv[i], "--smem") == 0 && i + 1 < argc) {
        if (!ParseNumber("--smem", argv[++i], 0, &smem)) return 1;
      } else if (std::strcmp(argv[i], "--reg") == 0 && i + 1 < argc) {
        if (!ParseNumber("--reg", argv[++i], 0, &reg)) return 1;
      } else if (std::strcmp(argv[i], "--split-k") == 0 && i + 1 < argc) {
        if (!ParseNumber("--split-k", argv[++i], 0, &split_k)) return 1;
      } else if (std::strcmp(argv[i], "--trials") == 0 && i + 1 < argc) {
        if (!ParseNumber("--trials", argv[++i], 0, &trials)) return 1;
      } else if (std::strcmp(argv[i], "--no-warm") == 0) {
        no_warm = true;
      } else if (std::strcmp(argv[i], "--force") == 0) {
        force = true;
      } else {
        positional.push_back(argv[i]);
      }
    }
    int64_t sizes[4];
    if (!ParseSizes(positional, sizes)) return 1;
    auto [m, n, k, batch] = sizes;
    std::ostringstream out;
    out << "{\"id\":1,\"method\":\"" << method << "\",\"family\":\""
        << (batch > 1 ? "batch_matmul" : "matmul") << "\",\"batch\":" << batch
        << ",\"m\":" << m << ",\"n\":" << n << ",\"k\":" << k;
    if (method == "tune") {
      if (trials > 0) out << ",\"trials\":" << trials;
      if (no_warm) out << ",\"warm\":false";
      if (force) out << ",\"force\":true";
    } else {
      if (tb.empty()) {
        std::fprintf(stderr, "%s needs --tb M,N,K\n", method.c_str());
        return 1;
      }
      out << ",\"config\":{\"tb\":" << tb;
      if (!warp.empty()) out << ",\"warp\":" << warp;
      if (smem > 0) out << ",\"smem\":" << smem;
      if (reg > 0) out << ",\"reg\":" << reg;
      if (split_k > 0) out << ",\"split_k\":" << split_k;
      out << "}";
    }
    out << "}";
    payload = out.str();
  } else {
    std::fprintf(stderr, "unknown client method '%s'\n", method.c_str());
    return 1;
  }

  serving::Client client;
  std::string error;
  if (!client.Connect(socket_path, &error)) {
    std::fprintf(stderr, "%s\n", error.c_str());
    return 1;
  }
  std::optional<std::string> response = client.CallRaw(payload);
  if (!response.has_value()) {
    std::fprintf(stderr, "no response from %s\n", socket_path);
    return 1;
  }
  std::printf("%s\n", response->c_str());
  std::optional<serving::JsonValue> parsed = serving::ParseJson(*response);
  const serving::JsonValue* ok =
      parsed.has_value() ? parsed->Find("ok") : nullptr;
  return ok != nullptr && ok->BoolOr(false) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: alcop_cli compile|tune|timeline|profile|calibrate|"
                 "ops|models|parse|verify|lint|cache|serve|client ...\n");
    return 1;
  }
  const char* cmd = argv[1];
  if (std::strcmp(cmd, "cache") == 0) return CmdCache(argc, argv);
  if (std::strcmp(cmd, "serve") == 0) return CmdServe(argc, argv);
  if (std::strcmp(cmd, "client") == 0) return CmdClient(argc, argv);
  if (std::strcmp(cmd, "lint") == 0) return CmdLint(argc, argv);
  if (std::strcmp(cmd, "profile") == 0) return CmdProfile(argc, argv);
  if (std::strcmp(cmd, "calibrate") == 0) return CmdCalibrate(argc, argv);
  if (std::strcmp(cmd, "compile") == 0) return CmdCompile(argc, argv);
  if (std::strcmp(cmd, "tune") == 0) return CmdTune(argc, argv);
  if (std::strcmp(cmd, "timeline") == 0) return CmdTimeline(argc, argv);
  if (std::strcmp(cmd, "ops") == 0) return CmdOps();
  if (std::strcmp(cmd, "models") == 0) return CmdModels();
  if (std::strcmp(cmd, "parse") == 0) return CmdParse(argc, argv);
  if (std::strcmp(cmd, "verify") == 0) return CmdVerify(argc, argv);
  std::fprintf(stderr, "unknown command '%s'\n", cmd);
  return 1;
}
