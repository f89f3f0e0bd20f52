// igepa end-to-end benchmark. Usually run through perfbench/run.py, which
// builds this binary and checks the result line against BENCHMARK.json:
//
//   igepa_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                   --workdir <dir> [--trace-out <file.json>]
//
// Prints a human-readable block, then one JSON line with every metric.
// Exits 1 when an output check failed.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: igepa_perfbench --workload "
               "paper-batch|city-100k-budget|serve-durable-5k "
               "--seed N --seconds S --trace 0|1 --workdir DIR "
               "[--trace-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  std::string trace_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--workdir") {
      config.workdir = value;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else {
      return Usage();
    }
  }
  if (config.workload.empty() || config.workdir.empty() ||
      !(config.seconds > 0)) {
    return Usage();
  }
  std::filesystem::remove_all(config.workdir);
  std::filesystem::create_directories(config.workdir);

  const bool serve = config.workload == "serve-durable-5k";
  std::printf("# igepa benchmark: workload %s, seed %llu, seconds %g, trace %d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0);
  std::printf("# nproc %u; pools: solver %d threads%s\n",
              std::thread::hardware_concurrency(), perfbench::kSolverThreads,
              serve ? ", submitter 1, reader 1" : "");

  perfbench::Tracer tracer(config.trace);
  perfbench::Report report;
  if (config.workload == "paper-batch") {
    perfbench::RunPaperBatch(config, &tracer, &report);
  } else if (config.workload == "city-100k-budget") {
    perfbench::RunCityBudget(config, &tracer, &report);
  } else if (serve) {
    perfbench::RunServeDurable(config, &tracer, &report);
  } else {
    std::filesystem::remove_all(config.workdir);
    return Usage();
  }
  std::filesystem::remove_all(config.workdir);

  if (config.trace) {
    for (const auto& [name, self_s] : tracer.SelfSecondsByName()) {
      report.Note("self time " + name + ": " + perfbench::Fmt(self_s) + " s");
    }
    if (!trace_out.empty()) {
      report.Check(tracer.WriteChromeJson(trace_out),
                   "write trace " + trace_out);
      report.Note("trace: " + trace_out);
    }
  }
  report.Print();
  return report.correct() ? 0 : 1;
}
