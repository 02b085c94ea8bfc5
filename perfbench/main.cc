// alcop_perfbench: the benchmark binary behind perfbench/run.py.
//
//   alcop_perfbench --workload tune-fig10|compile-cold|serve-mixed
//                   --seed N --seconds S --trace 0|1 --out DIR
//                   [--sha SHA] [--quick] [--perturb-oracle]
//
// The process pins itself to one CPU and the global thread pool to one
// thread before any other thread exists, runs one workload, prints a
// provenance line, and ends with the result line (the last line of
// stdout). --trace 1 prints the per-layer metrics instead of the
// end-to-end ones. Exit code 2 means a usage or set-up error; no result
// line is printed then.
#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "common.h"
#include "obs/trace.h"
#include "sim/sim_cache.h"
#include "support/parallel.h"

namespace {

// Pins the process to the highest-numbered CPU it may run on; returns that
// CPU and the size of the allowed set, or -1 when affinity is unavailable.
int PinToOneCpu(int* allowed) {
  cpu_set_t set;
  CPU_ZERO(&set);
  *allowed = 0;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return -1;
  int cpu = -1;
  for (int i = 0; i < CPU_SETSIZE; ++i) {
    if (CPU_ISSET(i, &set)) {
      cpu = i;
      ++*allowed;
    }
  }
  if (cpu < 0) return -1;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

double Fraction(uint64_t part, uint64_t whole) {
  return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    auto value = [&](const char* flag) -> const char* {
      if (std::strcmp(argv[i], flag) != 0 || i + 1 >= argc) return nullptr;
      return argv[++i];
    };
    if (const char* v = value("--workload")) {
      options.workload = v;
    } else if (const char* v = value("--seed")) {
      options.seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = value("--seconds")) {
      options.seconds = std::atof(v);
    } else if (const char* v = value("--trace")) {
      options.trace = std::strcmp(v, "1") == 0;
      have_trace = options.trace || std::strcmp(v, "0") == 0;
    } else if (const char* v = value("--out")) {
      options.out_dir = v;
    } else if (const char* v = value("--sha")) {
      options.sha = v;
    } else if (std::strcmp(argv[i], "--quick") == 0) {
      options.quick = true;
    } else if (std::strcmp(argv[i], "--perturb-oracle") == 0) {
      options.perturb_oracle = true;
    } else {
      std::fprintf(stderr, "alcop_perfbench: unknown argument %s\n", argv[i]);
      return 2;
    }
  }
  void (*run)(const perfbench::Options&, perfbench::Report*) = nullptr;
  if (options.workload == "tune-fig10") run = perfbench::RunTuneFig10;
  if (options.workload == "compile-cold") run = perfbench::RunCompileCold;
  if (options.workload == "serve-mixed") run = perfbench::RunServeMixed;
  if (run == nullptr || !have_trace || options.seconds <= 0 || options.out_dir.empty()) {
    std::fprintf(stderr,
                 "usage: alcop_perfbench --workload tune-fig10|compile-cold|serve-mixed "
                 "--seed N --seconds S --trace 0|1 --out DIR [--sha SHA] [--quick] "
                 "[--perturb-oracle]\n");
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(options.out_dir, ec);

  // Before any thread exists: one CPU, one pool thread, no cache budget
  // (serve-mixed sets its own), tracing off.
  int allowed = 0;
  const int cpu = PinToOneCpu(&allowed);
  alcop::support::SetGlobalThreads(1);
  alcop::sim::SetSimCacheBudgetBytes(0);
  alcop::obs::SetTraceEnabled(false);

  const perfbench::CpuTicks ticks0 = perfbench::ReadCpuTicks(cpu);
  const double cpu0 = perfbench::ProcessCpuSeconds();
  alcop::obs::Stopwatch wall;
  perfbench::Report report;
  try {
    run(options, &report);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "alcop_perfbench: %s\n", e.what());
    return 1;
  }
  const double wall_s = wall.Seconds();
  const double cpu_s = perfbench::ProcessCpuSeconds() - cpu0;
  const perfbench::CpuTicks ticks1 = perfbench::ReadCpuTicks(cpu);

  if (options.trace) report.PrintLayerTable(options.workload);
  std::printf(
      "provenance: {\"sha\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"pool_threads\": %d, \"cpu\": %d, \"allowed_cpus\": %d, \"nproc\": %ld, "
      "\"wall_s\": %.3f, \"process_cpu_s\": %.3f, \"steal_fraction_cpu\": %.4f, "
      "\"steal_fraction_all\": %.4f}\n",
      options.sha.empty() ? "unknown" : options.sha.c_str(), options.workload.c_str(),
      static_cast<unsigned long long>(options.seed), options.trace ? 1 : 0,
      alcop::support::ConfiguredThreads(), cpu, allowed, sysconf(_SC_NPROCESSORS_ONLN), wall_s,
      cpu_s, Fraction(ticks1.cpu_steal - ticks0.cpu_steal,
                                 ticks1.cpu_total - ticks0.cpu_total),
      Fraction(ticks1.all_steal - ticks0.all_steal,
                          ticks1.all_total - ticks0.all_total));
  if (report.attempted == 0) {
    std::fprintf(stderr, "alcop_perfbench: no operation was attempted\n");
    return 1;
  }
  std::fflush(stdout);
  return report.PrintResult() ? 0 : 1;
}
