// Runs the built alcop_cli (its path is compiled in as ALCOP_CLI_PATH).
// Bad workloads, bad flag values, stray arguments, a tune with no feasible
// trial, and cache actions on state a CLI process never holds must each
// exit with status 1, print nothing on stdout and one line on stderr: a
// signal or an ASan/UBSan report fails the test.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "schedule/tensor.h"
#include "serving/persist.h"
#include "serving/protocol.h"
#include "sim/sim_cache.h"
#include "target/gpu_spec.h"
#include "tuner/records.h"
#include "tuner/strategy.h"
#include "tuner/transfer.h"

extern char** environ;

namespace alcop {
namespace {

struct CliRun {
  bool exited = false;  // false: killed by a signal
  int status = -1;      // exit status when `exited`
  std::string out;
  std::string err;
};

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

std::string TempPath(const std::string& suffix) {
  return ::testing::TempDir() + "alcop_cli_test_" +
         std::to_string(::getpid()) + suffix;
}

// Runs alcop_cli with `args`, its stdout and stderr captured in files.
CliRun RunCli(const std::vector<std::string>& args) {
  const std::string out_path = TempPath(".out");
  const std::string err_path = TempPath(".err");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, out_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, err_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<char*> argv = {const_cast<char*>(ALCOP_CLI_PATH)};
  for (const std::string& arg : args) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  CliRun run;
  pid_t pid = 0;
  int spawned = posix_spawn(&pid, ALCOP_CLI_PATH, &actions, nullptr,
                            argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  if (spawned != 0) {
    ADD_FAILURE() << "cannot start " << ALCOP_CLI_PATH;
    return run;
  }
  int wstatus = 0;
  EXPECT_EQ(::waitpid(pid, &wstatus, 0), pid);
  run.exited = WIFEXITED(wstatus);
  if (run.exited) run.status = WEXITSTATUS(wstatus);
  run.out = ReadAll(out_path);
  run.err = ReadAll(err_path);
  std::remove(out_path.c_str());
  std::remove(err_path.c_str());
  return run;
}

std::string Join(const std::vector<std::string>& args) {
  std::string out = "alcop_cli";
  for (const std::string& arg : args) out += " " + arg;
  return out;
}

// Exit status 1, not a signal, nothing on stdout, and exactly one line on
// stderr, which contains `names` when given.
void ExpectOneLineFailure(const std::vector<std::string>& args,
                          const std::string& names = "") {
  SCOPED_TRACE(Join(args));
  CliRun run = RunCli(args);
  EXPECT_TRUE(run.exited) << "killed by a signal; stderr: " << run.err;
  EXPECT_EQ(run.status, 1);
  EXPECT_EQ(run.out, "");
  EXPECT_EQ(std::count(run.err.begin(), run.err.end(), '\n'), 1) << run.err;
  EXPECT_TRUE(!run.err.empty() && run.err.back() == '\n') << run.err;
  EXPECT_NE(run.err.find(names), std::string::npos) << run.err;
}

CliRun ExpectSuccess(const std::vector<std::string>& args) {
  SCOPED_TRACE(Join(args));
  CliRun run = RunCli(args);
  EXPECT_TRUE(run.exited) << "killed by a signal; stderr: " << run.err;
  EXPECT_EQ(run.status, 0) << run.err;
  return run;
}

TEST(CliTest, ZeroSizesAreRejectedByEveryWorkloadCommand) {
  ExpectOneLineFailure({"compile", "0", "0", "0"});
  ExpectOneLineFailure({"timeline", "0", "0", "0"});
  ExpectOneLineFailure({"tune", "0", "512", "512"});
  // A fourth number is the batch, also > 0.
  ExpectOneLineFailure({"tune", "512", "512", "512", "0"});
}

TEST(CliTest, EverySizeIsAWholeInt64) {
  // Not a numeric prefix, an ignored fifth number or a clamped value.
  ExpectOneLineFailure({"compile", "512x", "512", "512"});
  ExpectOneLineFailure({"compile", "512", "512", "512", "1", "7"});
  ExpectOneLineFailure({"compile", "99999999999999999999", "512", "512"});
}

TEST(CliTest, EveryFlagValueIsAWholeNumberInRange) {
  ExpectOneLineFailure({"tune", "MM_RN50_FC", "--trials", "4x"}, "'4x'");
  ExpectOneLineFailure({"tune", "MM_RN50_FC", "--model-topk", "12x"},
                       "'12x'");
  // The client reads its numbers before it connects: the line names the
  // bad size, not the missing socket.
  ExpectOneLineFailure({"client", "/nonexistent", "compile", "512x", "512",
                        "512", "--tb", "128,128,32"},
                       "'512x'");
}

TEST(CliTest, StrayArgumentsAreNamedBeforeAnySocketOrFile) {
  // Every command that takes arguments, and every client method, fails
  // with one line naming an unknown flag, a value flag given last without
  // its value, or a surplus operand, before it reads a file, binds or
  // connects a socket, or compiles anything. A command with no value flag
  // of its own is given another command's, which it does not know.
  const std::string socket = "/nonexistent-dir/alcopd.sock";
  const std::string file = TempPath(".tir");
  std::ofstream(file) << "alloc A: global fp16[2, 8]\n";
  struct Row {
    std::vector<std::string> args;  // valid without the stray argument
    std::string unknown_flag;
    std::string value_flag;
    std::string surplus;
  };
  auto client = [&socket](std::vector<std::string> args) {
    args.insert(args.begin(), {"client", socket});
    return args;
  };
  const std::vector<Row> rows = {
      {{"compile", "MM_RN50_FC"}, "--json", "--trials", "extra"},
      {{"compile", "512", "512", "512", "1"}, "--tb", "--trials", "7"},
      {{"timeline", "MM_RN50_FC"}, "--jsn", "--trials", "extra"},
      {{"tune", "MM_RN50_FC"}, "--trails", "--model-topk", "extra"},
      {{"tune", "512", "512", "512", "1"}, "--jsn", "--trials", "7"},
      {{"profile", "MM_RN50_FC"}, "--jsn", "--trace", "extra"},
      {{"calibrate", "MM_RN50_FC"}, "--jsn", "--trials", "extra"},
      {{"lint", "MM_RN50_FC"}, "--jsn", "--trials", "extra"},
      {{"lint", file}, "--jsn", "--path", "extra"},
      {{"verify", "/nonexistent.tir"}, "--jsn", "--path", "b.tir"},
      {{"parse", "/nonexistent.tir"}, "--json", "--path", "b.tir"},
      {{"cache", "load", "--path", "/nonexistent.alcp"}, "--pth", "--path",
       "clear"},
      {{"serve", socket, "--no-persist"}, "--htpp", "--trials", "other.sock"},
      {client({"ping"}), "--json", "--trials", "extra"},
      {client({"stats"}), "--json", "--trials", "extra"},
      {client({"persist"}), "--json", "--trials", "extra"},
      {client({"load"}), "--json", "--trials", "extra"},
      {client({"shutdown"}), "--json", "--trials", "extra"},
      // tune never sends a schedule.
      {client({"tune", "512", "512", "512", "1"}), "--tb", "--trials", "7"},
      {client({"compile", "512", "512", "512", "1", "--tb", "128,128,32"}),
       "--trials", "--warp", "7"},
      {client({"profile", "512", "512", "512", "1", "--tb", "128,128,32"}),
       "--force", "--tb", "7"},
      {client({"debug", "requests", "5"}), "--json", "--lane", "extra"},
      {client({"{\"method\":\"ping\"}"}), "--json", "--trials", "extra"},
  };
  for (const Row& row : rows) {
    for (const std::string& stray :
         {row.unknown_flag, row.value_flag, row.surplus}) {
      std::vector<std::string> args = row.args;
      args.push_back(stray);
      ExpectOneLineFailure(args, "'" + stray + "'");
    }
  }
  // A flag is never taken as the value of the flag before it.
  ExpectOneLineFailure({"profile", "MM_RN50_FC", "--trace", "--json"},
                       "'--trace'");
  ExpectOneLineFailure(client({"debug", "--lane", "--client", "c"}),
                       "'--lane'");
  std::remove(file.c_str());
}

TEST(CliTest, CalibrateFitTakesNoOtherArgument) {
  ExpectOneLineFailure({"calibrate", "--fit", "--stride", "8"});
  ExpectOneLineFailure({"calibrate", "--fit", "--json"});
}

TEST(CliTest, TuneLogIsOneJsonObjectPerSearchEvent) {
  const std::string log = TempPath(".jsonl");
  ExpectSuccess({"tune", "MM_RN50_FC", "--trials", "16", "--log", log});
  std::ifstream in(log);
  std::map<std::string, int> events;
  const std::string none;
  for (std::string line; std::getline(in, line);) {
    std::optional<serving::JsonValue> doc = serving::ParseJson(line);
    ASSERT_TRUE(doc.has_value()) << line;
    const serving::JsonValue* event = doc->Find("event");
    ASSERT_NE(event, nullptr) << line;
    ++events[event->StringOr(none)];
  }
  std::remove(log.c_str());
  // Each trial is proposed and measured, and the model is refit once
  // before each of the two model-guided rounds of 8.
  EXPECT_EQ(events, (std::map<std::string, int>{
                        {"proposed", 16}, {"measured", 16}, {"refit", 2}}));
}

TEST(CliTest, TuneWithoutAFeasibleTrialFails) {
  // No schedule fits an 8x8x8 batch: the space is empty.
  ExpectOneLineFailure({"tune", "8", "8", "8", "4"});
  // Zero trials measure nothing, so there is no winner to print.
  ExpectOneLineFailure({"tune", "512", "512", "512", "--trials", "0"});
}

TEST(CliTest, OpNamesAreWorkloadsForEveryCommand) {
  for (const char* command : {"compile", "timeline"}) {
    for (const char* op : {"MM_BERT_QKV", "MM_RN50_FC"}) {
      CliRun run = ExpectSuccess({command, op});
      EXPECT_EQ(run.out.rfind("schedule: ", 0), 0u) << run.out;
    }
  }
  CliRun tune = ExpectSuccess({"tune", "MM_RN50_FC"});
  EXPECT_EQ(tune.out.rfind("workload: MM_RN50_FC (matmul/1/1024x64x2048)\n"
                           "space: ",
                           0),
            0u)
      << tune.out;
  EXPECT_NE(tune.out.find("; 50 trials\nbest: "), std::string::npos)
      << tune.out;
}

TEST(CliTest, TuneReadsTheFourthNumberAsTheBatch) {
  CliRun run =
      ExpectSuccess({"tune", "256", "256", "256", "2", "--trials", "4"});
  EXPECT_EQ(run.out.rfind("workload: cli (batch_matmul/2/256x256x256)\n", 0),
            0u)
      << run.out;
  EXPECT_NE(run.out.find("; 4 trials\n"), std::string::npos) << run.out;
}

TEST(CliTest, CacheLoadsADaemonsFileAndNeverRewritesIt) {
  // The file a daemon leaves at shutdown: measured timings and a tuning.
  target::GpuSpec spec = target::AmpereSpec();
  sim::ResetSimCache();
  tuner::TuningStore::Global().Clear();
  tuner::TuningTask task = tuner::MakeSimulatorTask(
      schedule::MakeMatmul("mm", 512, 512, 512), spec);
  tuner::StoreTuning(task, tuner::GridSearch(task, 5),
                     tuner::TuningStore::Global());
  const std::string path = TempPath(".alcp");
  serving::PersistStats saved = serving::SaveCache(path, spec);
  sim::ResetSimCache();
  tuner::TuningStore::Global().Clear();
  ASSERT_TRUE(saved.ok) << saved.error;
  ASSERT_GE(saved.timings, 1u);
  ASSERT_EQ(saved.tunings, 1u);
  const std::string bytes = ReadAll(path);
  auto expect_unchanged = [&](const std::string& after) {
    std::string now = ReadAll(path);
    EXPECT_TRUE(now == bytes) << "the " << bytes.size() << "-byte file is "
                              << now.size() << " bytes after " << after;
  };

  // A CLI process's own cache is empty, so there is nothing to report or
  // save: both actions are gone, and neither touches the file.
  for (const char* action : {"stats", "persist"}) {
    ExpectOneLineFailure({"cache", action, "--path", path});
    expect_unchanged(std::string("cache ") + action);
  }

  CliRun load = ExpectSuccess({"cache", "load", "--path", path, "--json"});
  std::optional<serving::JsonValue> doc = serving::ParseJson(load.out);
  ASSERT_TRUE(doc.has_value()) << load.out;
  EXPECT_EQ(doc->Find("timings")->NumberOr(0),
            static_cast<double>(saved.timings));
  EXPECT_EQ(doc->Find("tunings")->NumberOr(0), 1.0);
  CliRun by_default = ExpectSuccess({"cache", "--path", path});
  EXPECT_EQ(by_default.out.rfind("loaded " + path + ": ", 0), 0u)
      << by_default.out;
  expect_unchanged("cache load");

  CliRun clear = ExpectSuccess({"cache", "clear", "--path", path});
  EXPECT_EQ(clear.out, "removed " + path + "\n");
  EXPECT_FALSE(std::ifstream(path).good());
  ExpectOneLineFailure({"cache", "load", "--path", path});
}

}  // namespace
}  // namespace alcop
