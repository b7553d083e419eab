// gsgrow benchmark program: runs one workload in this process and prints the
// result object as the last line of standard output.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--workdir <dir>] [--commit <id>]
//
// --trace 0 reports the end-to-end metrics. --trace 1 runs the workload
// once untraced and once traced, and reports the per-layer metrics plus the
// tracing overhead (traced vs untraced end-to-end numbers). The exit code
// is non-zero when any correctness gate fails.

#include <sched.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "bench_util.h"
#include "inputs.h"
#include "phases.h"

namespace {

using perfbench::Metrics;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 45;
  int trace = 0;
  std::string workdir = ".bench_build/perfbench-work";
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i], value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = std::atoi(value.c_str());
    } else if (key == "--workdir") {
      args->workdir = value;
    } else if (key == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

int Cpus() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

struct RunResult {
  Metrics e2e, layer;
  perfbench::Outcome outcome;
};

// One pass over the workload: slices until `seconds` have passed and every
// batch corpus and session has had one.
RunResult RunOnce(const perfbench::Inputs& inputs, const std::string& workdir,
                  double seconds, bool traced) {
  perfbench::Tracer tracer(traced);
  std::filesystem::remove_all(workdir);
  std::filesystem::create_directories(workdir);
  perfbench::Bench bench(inputs, workdir, &tracer);
  const size_t min_slices =
      std::max(inputs.sessions.size(), inputs.batch_corpora.size());
  const int64_t t0 = perfbench::NowNs();
  size_t k = 0;
  for (; k < min_slices || perfbench::NowNs() - t0 < seconds * 1e9; ++k) {
    bench.Slice(k);
  }
  const int64_t t1 = perfbench::NowNs();
  bench.Finish();
  std::printf("seconds: measured=%.2f checks=%.2f slices=%zu\n",
              (t1 - t0) / 1e9, (perfbench::NowNs() - t1) / 1e9, k);
  std::filesystem::remove_all(workdir);
  if (traced) {
    const std::string path = workdir + "-spans.tsv";
    if (!tracer.WriteTsv(path)) {
      bench.outcome.Gate(false, "could not write " + path);
    }
    std::printf("spans: %zu written to %s\n", tracer.spans().size(),
                path.c_str());
  }
  return RunResult{bench.e2e, bench.layer, bench.outcome};
}

void PrintMetrics(const char* title, const Metrics& m) {
  std::printf("%s\n", title);
  for (const std::string& name : m.order) {
    const auto& [value, unit] = m.values.at(name);
    std::printf("  %-36s %14.6g %s\n", name.c_str(), value, unit.c_str());
  }
}

std::string Json(bool correct, const perfbench::Outcome& outcome,
                 const Metrics& m) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(outcome.attempted);
  out += ", \"failed\": " + std::to_string(outcome.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const std::string& name : m.order) {
    const auto& [value, unit] = m.values.at(name);
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g", value);
    out += (first ? "" : ", ") + std::string("\"") + name +
           "\": {\"value\": " + number + ", \"unit\": \"" + unit + "\"}";
    first = false;
  }
  out += "}}";
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--workdir <dir>] [--commit <id>]\n");
    return 2;
  }
  perfbench::Inputs inputs;
  if (!perfbench::MakeInputs(args.workload, args.seed, &inputs)) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  std::printf(
      "# perfbench commit=%s compiler=\"%s\" build_type=%s nproc=%d "
      "workload=%s seed=%llu seconds=%g trace=%d\n"
      "# params: %s\n",
      args.commit.c_str(), kCompiler, PERFBENCH_BUILD_TYPE, Cpus(),
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace, inputs.params.c_str());
  std::fflush(stdout);

  RunResult plain = RunOnce(inputs, args.workdir, args.seconds, false);
  PrintMetrics("end-to-end (untraced):", plain.e2e);
  perfbench::Outcome outcome = plain.outcome;
  Metrics reported = plain.e2e;

  if (args.trace != 0) {
    RunResult traced = RunOnce(inputs, args.workdir, args.seconds, true);
    PrintMetrics("end-to-end (traced):", traced.e2e);
    reported = traced.layer;
    // Tracing overhead: traced over untraced end-to-end time, minus one.
    for (const char* name :
         {"mine_s", "mine_2t_s", "query_p50_ms", "append_p50_us"}) {
      reported.Set(std::string("trace.overhead.") + name,
                   traced.e2e.values[name].first /
                           plain.e2e.values[name].first -
                       1.0,
                   "ratio");
    }
    outcome.attempted += traced.outcome.attempted;
    outcome.failed += traced.outcome.failed;
    outcome.gate_failures.insert(outcome.gate_failures.end(),
                                 traced.outcome.gate_failures.begin(),
                                 traced.outcome.gate_failures.end());
    PrintMetrics("per-layer (traced):", reported);
  }

  for (const std::string& failure : outcome.gate_failures) {
    std::printf("GATE FAILED: %s\n", failure.c_str());
  }
  const bool correct = outcome.gate_failures.empty();
  std::printf("%s\n", Json(correct, outcome, reported).c_str());
  return correct ? 0 : 1;
}
