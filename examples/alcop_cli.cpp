// alcop_cli — command-line driver for the whole stack.
//
//   alcop_cli compile  WORKLOAD        compile + print pipelined IR & timing
//   alcop_cli tune     WORKLOAD [--trials N] [--log FILE] [--model-topk N]
//       model-assisted tuning of N trials (default 50), print the workload
//       and the winner; exit 1 when no trial measured feasible;
//       --model-topk simulates only the analytical model's N favorites
//       (plus an exploration tail).
//   alcop_cli timeline WORKLOAD        render the execution timeline
//   alcop_cli ops                      list the benchmark operator suite
//   alcop_cli models                   list the end-to-end model graphs
//   alcop_cli parse    FILE            parse a textual IR file, validate by
//                                      re-printing it (round-trip check)
//   alcop_cli verify   FILE [--json]
//       statically verify the pipeline synchronization of a textual IR file
//       (exit 1 on errors; see src/verify/); --json emits the shared
//       diagnostic JSON schema (same renderer as lint).
//   alcop_cli lint     WORKLOAD|FILE [--json] [--no-swizzle]
//       run the static analysis framework (src/analysis/): bounds proofs,
//       region-level race detection, bank conflicts, occupancy feasibility.
//       A workload is compiled with its best schedule first; a .tir file is
//       linted as written (with source spans). Exit 1 on L-code errors.
//   alcop_cli profile  WORKLOAD [--json] [--trace FILE] [--counters]
//       full observability report: per-warp stall attribution, pipe
//       utilization, bottleneck verdict, PMU counters, host metrics;
//       --trace exports a Chrome/Perfetto trace with host spans and the
//       simulated-GPU timeline; --counters prints the PMU table (--json
//       always embeds the counter block). One run of the reference
//       interpreter gives the timing, the counters and the profiled
//       timeline.
//   alcop_cli calibrate WORKLOAD [--json]
//       audit the Table-I analytical model against PMU/stall measurements:
//       per-term relative error, roofline regime, bottleneck-verdict
//       cross-check.
//   alcop_cli calibrate --fit
//       grid-search the analytical model's two fitted constants over every
//       8th config of the Fig. 10 sweep; exits 1 if the spec's checked-in
//       constants are stale.
//   alcop_cli cache    [load|clear] [--json] [--path FILE]
//       load the on-disk sim cache (the default) and report what it held,
//       or remove the file. The path defaults to
//       $ALCOP_CACHE_DIR/sim_cache.alcp; load exits 1 when the file is
//       missing or incompatible (wrong version/spec/fitted constants). A
//       daemon saves its cache there at shutdown or on `client SOCKET
//       persist`.
//   alcop_cli serve    SOCKET [--trials N] [--seed N] [--no-warm]
//       [--cache FILE] [--no-persist] [--budget B] [--http PORT]
//       [--access-log FILE] [--flight-depth N] [--snapshot-interval MS]
//       [--watchdog-ms MS] [--log-level LEVEL] [--log-file FILE]
//       run alcopd on a unix socket: the long-lived tuning service (fast
//       lane for cache hits, slow lane for compiles and searches); loads
//       the on-disk cache at start, persists at shutdown. Stop it with
//       `client SOCKET shutdown`. --http adds a loopback HTTP front end
//       (0 = ephemeral port): GET /metrics (Prometheus), /healthz,
//       /debug/{requests,timeseries,trace,log}, POST /v1/<method>.
//       --access-log writes one JSONL line per request. --flight-depth
//       sizes the request flight recorder, --snapshot-interval the periodic
//       metrics time series (0 = off), --watchdog-ms the stalled-lane
//       threshold. --log-level (or $ALCOP_LOG_LEVEL) is
//       debug|info|warn|error|off; --log-file appends the JSONL log.
//   alcop_cli client   SOCKET METHOD [...]
//       talk to a running alcopd, print the response payload, and exit 0
//       iff the daemon answered ok:true. METHOD is one of
//         ping|stats|persist|load|shutdown
//         tune M N K [batch] [--trials N] [--no-warm] [--force]
//         compile|profile M N K [batch] --tb M,N,K [--warp M,N,K]
//             [--smem S] [--reg R] [--split-k S]
//         debug [requests|timeseries|log|trace] [N] [--client C]
//             [--lane L] [--outcome O] [--metric M]
//         '{...}'   raw protocol JSON
//
// A WORKLOAD is a benchmark op name (see `ops`) or M N K [batch], every
// size a whole number > 0 that fits 64 bits. Every other number, flag
// values and client sizes included, is read the same way and must fit
// its flag's range. One table-driven reader (ReadArgs) reads every
// command's and client method's arguments: a bad number, an unknown flag,
// a value flag without its value (given last, or followed by a flag), or
// a surplus or missing operand exits 1 with one line naming it, before
// any file is read, any socket is bound or connected, or anything is
// compiled. compile, timeline, lint, profile and calibrate use the best
// schedule found by a 16-trial analytical ranking.
#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
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

constexpr int64_t kMaxInt = std::numeric_limits<int>::max();
constexpr int64_t kMaxInt64 = std::numeric_limits<int64_t>::max();

constexpr char kWorkload[] =
    "a workload: a benchmark op name (see `alcop_cli ops`) or M N K [batch]";

// True when `arg` starts with a digit: a size, or debug's N.
bool IsNumber(const char* arg) {
  return std::isdigit(static_cast<unsigned char>(arg[0])) != 0;
}

// True when all of `text` is a decimal number that fits an int64_t.
bool ParseSize(const char* text, int64_t* value) {
  const char* end = text + std::strlen(text);
  auto [ptr, ec] = std::from_chars(text, end, *value);
  return ec == std::errc() && ptr == end;
}

// Reads `text`, the value of `what`, into `*value`: a whole number (see
// ParseSize) from `min` to `max`. Otherwise prints one line that names the
// value and returns false.
bool ParseNumber(const char* what, const char* text, int64_t min, int64_t max,
                 int64_t* value) {
  if (ParseSize(text, value) && *value >= min && *value <= max) return true;
  std::fprintf(stderr, "%s expects a whole number in [%lld, %lld], got '%s'\n",
               what, (long long)min, (long long)max, text);
  return false;
}

// M N K [batch]: three or four whole numbers > 0, the batch 1 when absent.
// Otherwise prints one line and returns false.
bool ParseSizes(const std::vector<const char*>& positional, int64_t sizes[4]) {
  if (positional.size() != 3 && positional.size() != 4) {
    std::fprintf(stderr, "expected M N K [batch]\n");
    return false;
  }
  sizes[3] = 1;
  for (size_t i = 0; i < positional.size(); ++i) {
    if (!ParseNumber("M N K [batch]", positional[i], 1, kMaxInt64,
                     &sizes[i])) {
      return false;
    }
  }
  return true;
}

// WORKLOAD positionals: a benchmark op name (see `ops`) or M N K [batch].
bool ParseWorkload(const std::vector<const char*>& positional,
                   schedule::GemmOp* op) {
  if (!positional.empty() && IsNumber(positional[0])) {
    int64_t sizes[4];
    if (!ParseSizes(positional, sizes)) return false;
    auto [m, n, k, batch] = sizes;
    *op = batch > 1 ? schedule::MakeBatchMatmul("cli", batch, m, n, k)
                    : schedule::MakeMatmul("cli", m, n, k);
    return true;
  }
  if (positional.size() != 1) {
    std::fprintf(stderr, "expected %s\n", kWorkload);
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

// How a flag is read: a switch takes no value, and every other kind reads
// the argument after the flag.
enum class Kind {
  kSwitch,
  kNumber,  // a whole number in [min, max] (ParseNumber)
  kTriple,  // M,N,K, kept as the JSON array TripleToJson makes of it
  kText,    // taken as given: a path or a filter
  kLevel,   // one of ParseLogLevel's level names
};

struct Flag {
  const char* name;  // "--trials"
  Kind kind = Kind::kSwitch;
  int64_t min = 0;  // a number's range
  int64_t max = 0;
};

// One flag as given, with its value: `number` holds a number or a log
// level, `text` a triple's JSON array or a text.
struct Given {
  const char* name;
  int64_t number = 0;
  std::string text = "";
};

// A command's arguments as ReadArgs read them.
struct Args {
  std::vector<const char*> operands;
  std::vector<Given> flags;       // in the order given
  std::vector<const char*> rest;  // a subcommand's own arguments, unread

  // The last value given for `flag`, or nullptr when it was not given.
  const Given* Find(std::string_view flag) const {
    for (auto it = flags.rbegin(); it != flags.rend(); ++it) {
      if (flag == it->name) return &*it;
    }
    return nullptr;
  }
  bool Has(std::string_view flag) const { return Find(flag) != nullptr; }
  int64_t Number(std::string_view flag, int64_t fallback) const {
    return Has(flag) ? Find(flag)->number : fallback;
  }
  std::string Text(std::string_view flag) const {
    return Has(flag) ? Find(flag)->text : "";
  }
};

// What a command, or a client method, accepts. Its operands are the
// arguments that are not flags: from `min_operands` to `max_operands`,
// where a `workload` given as M N K [batch] is one operand of up to four
// words. A `subcommand` command stops reading after its last operand and
// leaves the rest to what that operand names.
struct Syntax {
  std::vector<Flag> flags;
  const char* operands = "";  // what they are, for the missing-operand line
  size_t min_operands = 0;
  size_t max_operands = 0;
  bool workload = false;
  bool subcommand = false;
};

// Reads `text`, the value of `flag`, into `given`. Otherwise prints one
// line that names the value and returns false.
bool ReadValue(const Flag& flag, const char* text, Given* given) {
  given->text = text;
  if (flag.kind == Kind::kNumber) {
    return ParseNumber(flag.name, text, flag.min, flag.max, &given->number);
  }
  if (flag.kind == Kind::kTriple) {
    given->text = TripleToJson(text);
    if (!given->text.empty()) return true;
    std::fprintf(stderr, "%s expects M,N,K, got '%s'\n", flag.name, text);
    return false;
  }
  if (flag.kind == Kind::kLevel) {
    // ParseLogLevel returns its fallback only for a name it does not know.
    obs::LogLevel level = obs::ParseLogLevel(text, obs::LogLevel::kDebug);
    given->number = static_cast<int64_t>(level);
    if (level == obs::ParseLogLevel(text, obs::LogLevel::kOff)) return true;
    std::fprintf(stderr, "%s expects debug|info|warn|error|off, got '%s'\n",
                 flag.name, text);
    return false;
  }
  return true;
}

// Reads `argv`, the arguments of command `who`, by `syntax` into `args`.
// An unknown flag, a value flag without its value, a bad value, or a
// surplus or missing operand prints one line naming it and `who`.
bool ReadArgs(const char* who, const Syntax& syntax,
              const std::vector<const char*>& argv, Args* args) {
  for (size_t i = 0; i < argv.size(); ++i) {
    const char* arg = argv[i];
    if (syntax.subcommand && args->operands.size() == syntax.max_operands) {
      args->rest.assign(argv.begin() + i, argv.end());
      break;
    }
    if (std::strncmp(arg, "--", 2) != 0) {
      args->operands.push_back(arg);
      continue;
    }
    auto flag = std::find_if(
        syntax.flags.begin(), syntax.flags.end(),
        [arg](const Flag& f) { return std::strcmp(f.name, arg) == 0; });
    if (flag == syntax.flags.end()) {
      std::fprintf(stderr, "%s: unknown flag '%s'\n", who, arg);
      return false;
    }
    Given given{flag->name};
    if (flag->kind != Kind::kSwitch) {
      // A value never starts with "--": that is the next flag.
      if (i + 1 == argv.size() || std::strncmp(argv[i + 1], "--", 2) == 0) {
        std::fprintf(stderr, "%s: missing value for '%s'\n", who, arg);
        return false;
      }
      if (!ReadValue(*flag, argv[++i], &given)) return false;
    }
    args->flags.push_back(std::move(given));
  }
  const std::vector<const char*>& operands = args->operands;
  size_t max = syntax.max_operands;
  if (syntax.workload && !operands.empty() && IsNumber(operands[0])) max += 3;
  if (operands.size() > max) {
    std::fprintf(stderr, "%s: unexpected argument '%s'\n", who, operands[max]);
    return false;
  }
  if (operands.size() < syntax.min_operands) {
    std::fprintf(stderr, "%s: expected %s\n", who, syntax.operands);
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

int CmdCompile(const Args& args) {
  target::GpuSpec spec = target::AmpereSpec();
  schedule::GemmOp op;
  if (!ParseWorkload(args.operands, &op)) return 1;
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

int CmdTune(const Args& args) {
  // tune WORKLOAD [--trials N] [--log FILE] [--model-topk N]; --log streams
  // one JSON object per search event (proposals with GBT + analytical
  // scores, measurements, refits with rank accuracy); --model-topk prunes
  // the space to the analytical model's N favorites plus an exploration
  // tail (N=0 disables).
  const std::string log_path = args.Text("--log");
  const size_t trials = args.Number("--trials", 50);
  target::GpuSpec spec = target::AmpereSpec();
  schedule::GemmOp op;
  if (!ParseWorkload(args.operands, &op)) return 1;

  tuner::SpaceOptions space_options;
  space_options.model_topk = static_cast<int>(args.Number("--model-topk", 0));
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

int CmdTimeline(const Args& args) {
  target::GpuSpec spec = target::AmpereSpec();
  schedule::GemmOp op;
  if (!ParseWorkload(args.operands, &op)) return 1;
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

int CmdOps(const Args&) {
  std::printf("%-16s %-12s %8s %8s %8s %8s\n", "name", "family", "batch", "M",
              "N", "K");
  for (const schedule::GemmOp& op : workloads::BenchmarkOps()) {
    std::printf("%-16s %-12s %8ld %8ld %8ld %8ld\n", op.name.c_str(),
                schedule::OpFamilyName(op.family), op.batch, op.m, op.n, op.k);
  }
  return 0;
}

int CmdModels(const Args&) {
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

int CmdParse(const Args& args) {
  std::string text;
  ir::Stmt program;
  if (!ParseIrFile(args.operands[0], &program, &text)) return 1;
  std::string reprinted = ir::ToString(program);
  std::printf("%s", reprinted.c_str());
  std::fprintf(stderr, "round-trip: %s\n",
               reprinted == text ? "exact" : "normalized");
  return 0;
}

int CmdVerify(const Args& args) {
  const char* path = args.operands[0];
  ir::Stmt program;
  if (!ParseIrFile(path, &program)) return 1;
  verify::VerifyResult result = verify::VerifyProgram(program);
  if (args.Has("--json")) {
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

int CmdLint(const Args& args) {
  // lint WORKLOAD|FILE [--json] [--no-swizzle]; a readable file is linted
  // as textual IR (source spans in diagnostics), anything else resolves
  // as a workload and lints the compiled best schedule.
  analysis::LintOptions options;
  options.swizzle = !args.Has("--no-swizzle");
  std::string subject = args.operands[0];
  std::string schedule_str;
  ir::Stmt program;
  if (std::ifstream(args.operands[0])) {
    if (!ParseIrFile(args.operands[0], &program)) return 1;
  } else {
    target::GpuSpec spec = target::AmpereSpec();
    schedule::GemmOp op;
    if (!ParseWorkload(args.operands, &op)) return 1;
    schedule::ScheduleConfig config = BestConfig(op, spec, 16);
    sim::CompiledKernel compiled = sim::CompileKernel(op, config, spec);
    program = compiled.transformed.stmt;
    subject = op.name;
    schedule_str = config.ToString();
    options.swizzle = config.swizzle;
  }

  analysis::LintResult result = analysis::LintProgram(program, options);

  if (args.Has("--json")) {
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

int CmdProfile(const Args& args) {
  // profile WORKLOAD [--json] [--trace FILE] [--counters].
  const std::string trace_path = args.Text("--trace");
  target::GpuSpec spec = target::AmpereSpec();
  schedule::GemmOp op;
  if (!ParseWorkload(args.operands, &op)) return 1;

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

  if (args.Has("--json")) {
    std::printf("%s\n", obs::ProfileToJson(profile, &timing, &pmu).c_str());
    return 0;
  }
  std::printf("workload: %s  schedule: %s\n", op.name.c_str(),
              config.ToString().c_str());
  std::printf("timing: %.0f cycles, %.1f us, %.1f TFLOP/s\n", timing.cycles,
              timing.microseconds, timing.tflops);
  std::printf("%s", obs::RenderProfile(profile).c_str());
  if (args.Has("--counters")) {
    std::printf("\n%s", sim::RenderPmu(pmu).c_str());
  }
  std::printf("\n--- host metrics ---\n");
  for (const auto& [name, value] :
       obs::FlattenSnapshot(obs::Registry::Global().Snapshot())) {
    std::printf("%s = %s\n", name.c_str(), support::JsonNumber(value).c_str());
  }
  return 0;
}

int CmdCalibrate(const Args& args) {
  const bool json = args.Has("--json");
  target::GpuSpec spec = target::AmpereSpec();
  if (args.Has("--fit")) {
    // Re-derive the spec's two model constants from the Fig. 10 suite and
    // report whether they match what the spec ships.
    if (json || !args.operands.empty()) {
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
  if (!ParseWorkload(args.operands, &op)) return 1;

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

int CmdCache(const Args& args) {
  // cache [load|clear] [--json] [--path FILE]
  const bool json = args.Has("--json");
  std::string action = args.operands.empty() ? "load" : args.operands[0];
  if (action != "load" && action != "clear") {
    std::fprintf(stderr, "unknown cache action '%s' (load|clear)\n",
                 action.c_str());
    return 1;
  }
  std::string path = args.Text("--path");
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

int CmdServe(const Args& args) {
  serving::ServerOptions options;
  options.spec = target::AmpereSpec();
  options.socket_path = args.operands[0];
  options.default_trials = args.Number("--trials", options.default_trials);
  options.seed = args.Number("--seed", options.seed);
  options.warm_start = !args.Has("--no-warm");
  options.cache_path = args.Text("--cache");
  options.persist_on_shutdown = !args.Has("--no-persist");
  options.http_port = args.Number("--http", options.http_port);
  options.access_log_path = args.Text("--access-log");
  options.flight_depth = args.Number("--flight-depth", options.flight_depth);
  options.snapshot_interval_ms =
      args.Number("--snapshot-interval", options.snapshot_interval_ms);
  options.watchdog_stall_ms =
      args.Number("--watchdog-ms", options.watchdog_stall_ms);
  if (args.Has("--log-level")) {
    obs::StructuredLog::Global().SetLevel(
        static_cast<obs::LogLevel>(args.Number("--log-level", 0)));
  }
  const std::string log_file = args.Text("--log-file");
  if (uint64_t budget = args.Number("--budget", 0); budget != 0) {
    sim::SetSimCacheBudgetBytes(budget);
  }

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

// The fields every client request starts with: {"id":1,"method":METHOD}.
obs::LogFields Request(const char* method) {
  return obs::LogFields().Int("id", 1).Str("method", method);
}

// ping, stats, persist, load and shutdown send the method alone.
std::string PlainRequest(const char* method, const Args&) {
  return Request(method).Object();
}

// Raw protocol JSON is sent verbatim.
std::string RawRequest(const char* json, const Args&) { return json; }

// debug [requests|timeseries|log|trace] [N] [--client C] [--lane L]
// [--outcome O] [--metric M]: the view, its depth when N > 0, and each
// filter in the order given.
std::string DebugRequest(const char* method, const Args& args) {
  std::string what = "requests";
  int64_t n = 0;
  for (const char* operand : args.operands) {
    if (!IsNumber(operand)) {
      what = operand;
    } else if (!ParseNumber("debug N", operand, 0, kMaxInt64, &n)) {
      return "";
    }
  }
  obs::LogFields request = Request(method).Str("what", what);
  if (n > 0) request.Int("n", n);
  for (const Given& f : args.flags) request.Str(f.name + 2, f.text);
  return request.Object();
}

// tune|compile|profile M N K [batch]: the operator, then tune's search
// options ([--trials N] [--no-warm] [--force]) or the schedule a compile
// or profile measures (--tb M,N,K [--warp M,N,K] [--smem S] [--reg R]
// [--split-k S]).
std::string OpRequest(const char* method, const Args& args) {
  int64_t sizes[4];
  if (!ParseSizes(args.operands, sizes)) return "";
  auto [m, n, k, batch] = sizes;
  obs::LogFields request =
      Request(method).Str("family", batch > 1 ? "batch_matmul" : "matmul");
  request.Int("batch", batch).Int("m", m).Int("n", n).Int("k", k);
  if (std::strcmp(method, "tune") == 0) {
    if (int64_t trials = args.Number("--trials", 0); trials > 0) {
      request.Int("trials", trials);
    }
    if (args.Has("--no-warm")) request.Bool("warm", false);
    if (args.Has("--force")) request.Bool("force", true);
    return request.Object();
  }
  if (!args.Has("--tb")) {
    std::fprintf(stderr, "%s needs --tb M,N,K\n", method);
    return "";
  }
  obs::LogFields config = obs::LogFields().Raw("tb", args.Text("--tb"));
  if (args.Has("--warp")) config.Raw("warp", args.Text("--warp"));
  for (auto [flag, key] : {std::pair{"--smem", "smem"}, {"--reg", "reg"},
                           {"--split-k", "split_k"}}) {
    if (int64_t value = args.Number(flag, 0); value > 0) config.Int(key, value);
  }
  return request.Raw("config", config.Object()).Object();
}

// A client method: what it accepts, and its request built from what it
// was given (empty, after one line on stderr, when a value does not read).
struct Method {
  const char* name;
  Syntax syntax;
  std::string (*request)(const char* method, const Args& args);
};

const Syntax kScheduleSyntax = {
    {{"--tb", Kind::kTriple}, {"--warp", Kind::kTriple},
     {"--smem", Kind::kNumber, 0, kMaxInt},
     {"--reg", Kind::kNumber, 0, kMaxInt},
     {"--split-k", Kind::kNumber, 0, kMaxInt}},
    "M N K [batch]", 3, 4};

const Method kMethods[] = {
    {"ping", {}, PlainRequest},
    {"stats", {}, PlainRequest},
    {"persist", {}, PlainRequest},
    {"load", {}, PlainRequest},
    {"shutdown", {}, PlainRequest},
    {"tune",
     {{{"--trials", Kind::kNumber, 0, kMaxInt64}, {"--no-warm"}, {"--force"}},
      "M N K [batch]", 3, 4},
     OpRequest},
    {"compile", kScheduleSyntax, OpRequest},
    {"profile", kScheduleSyntax, OpRequest},
    {"debug",
     {{{"--client", Kind::kText}, {"--lane", Kind::kText},
       {"--outcome", Kind::kText}, {"--metric", Kind::kText}},
      "", 0, 2},
     DebugRequest},
    {"{...}", {}, RawRequest},  // any METHOD that starts with '{'
};

// client SOCKET METHOD [...]: reads the method's arguments and builds its
// request before it connects.
int CmdClient(const Args& args) {
  const char* socket_path = args.operands[0];
  const char* method = args.operands[1];
  const char* name = method[0] == '{' ? "{...}" : method;
  const Method* chosen = nullptr;
  for (const Method& m : kMethods) {
    if (std::strcmp(m.name, name) == 0) chosen = &m;
  }
  if (chosen == nullptr) {
    std::fprintf(stderr, "unknown client method '%s'\n", method);
    return 1;
  }
  Args method_args;
  const std::string who = std::string("client ") + chosen->name;
  if (!ReadArgs(who.c_str(), chosen->syntax, args.rest, &method_args)) {
    return 1;
  }
  const std::string payload = chosen->request(method, method_args);
  if (payload.empty()) return 1;

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

// One WORKLOAD operand (an op name, or M N K [batch]); `min_operands` 0
// lets calibrate --fit go without it.
Syntax Workload(std::vector<Flag> flags, size_t min_operands = 1) {
  return {std::move(flags), kWorkload, min_operands, 1, /*workload=*/true};
}

// A command: what it accepts and what runs once ReadArgs has read it.
struct Command {
  const char* name;
  Syntax syntax;
  int (*run)(const Args& args);
};

const Command kCommands[] = {
    {"compile", Workload({}), CmdCompile},
    {"tune",
     Workload({{"--trials", Kind::kNumber, 0, kMaxInt64},
               {"--log", Kind::kText},
               {"--model-topk", Kind::kNumber, 0, kMaxInt}}),
     CmdTune},
    {"timeline", Workload({}), CmdTimeline},
    {"profile",
     Workload({{"--json"}, {"--counters"}, {"--trace", Kind::kText}}),
     CmdProfile},
    {"calibrate", Workload({{"--json"}, {"--fit"}}, 0), CmdCalibrate},
    {"ops", {}, CmdOps},
    {"models", {}, CmdModels},
    {"parse", {{}, "a file path", 1, 1}, CmdParse},
    {"verify", {{{"--json"}}, "a file path", 1, 1}, CmdVerify},
    {"lint",
     {{{"--json"}, {"--no-swizzle"}},
      "a workload (see `alcop_cli ops`), M N K [batch], or a .tir file", 1, 1,
      /*workload=*/true},
     CmdLint},
    {"cache", {{{"--json"}, {"--path", Kind::kText}}, "", 0, 1}, CmdCache},
    {"serve",
     {{{"--trials", Kind::kNumber, 0, kMaxInt64},
       {"--seed", Kind::kNumber, 0, kMaxInt64}, {"--no-warm"},
       {"--cache", Kind::kText}, {"--no-persist"},
       {"--budget", Kind::kNumber, 0, kMaxInt64},
       {"--http", Kind::kNumber, -1, 65535}, {"--access-log", Kind::kText},
       {"--flight-depth", Kind::kNumber, 0, kMaxInt64},
       {"--snapshot-interval", Kind::kNumber, -kMaxInt - 1, kMaxInt},
       {"--watchdog-ms", Kind::kNumber, -kMaxInt - 1, kMaxInt},
       {"--log-level", Kind::kLevel}, {"--log-file", Kind::kText}},
      "a unix socket path", 1, 1},
     CmdServe},
    {"client",
     {{}, "SOCKET METHOD [...]", 2, 2, /*workload=*/false, /*subcommand=*/true},
     CmdClient},
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: alcop_cli compile|tune|timeline|profile|calibrate|"
                 "ops|models|parse|verify|lint|cache|serve|client ...\n");
    return 1;
  }
  for (const Command& command : kCommands) {
    if (std::strcmp(command.name, argv[1]) != 0) continue;
    Args args;
    if (!ReadArgs(command.name, command.syntax,
                  std::vector<const char*>(argv + 2, argv + argc), &args)) {
      return 1;
    }
    return command.run(args);
  }
  std::fprintf(stderr, "unknown command '%s'\n", argv[1]);
  return 1;
}
