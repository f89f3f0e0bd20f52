// Scale benchmark for the two-level sharded solver over the igepa-bin,4
// memory-mapped path: generate a synthetic instance straight to binary
// (bounded memory), materialize it through an InstanceView and run
// ShardedSolve end to end. Default args cover 20k and 100k users; the
// million-user row is opt-in via IGEPA_BENCH_1M=1 (it takes minutes and
// exists for the scaling table in DESIGN.md, not for per-PR tracking).
//
// items_per_second is users/sec — the headline scale metric. Results land in
// BENCH_sharded.json unless the caller picks a --benchmark_out.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/sharded_solver.h"
#include "gen/streaming_gen.h"
#include "io/binary_instance.h"
#include "util/rng.h"

namespace {

using namespace igepa;

std::string ScratchPath(int64_t users) {
  const char* tmp = std::getenv("TMPDIR");
  return std::string(tmp != nullptr ? tmp : "/tmp") +
         "/igepa_bench_sharded_" + std::to_string(users) + ".bin";
}

void BM_ShardedSolve(benchmark::State& state) {
  const auto users = state.range(0);
  const std::string path = ScratchPath(users);
  gen::SyntheticConfig config;
  config.num_events = 200;
  config.num_users = static_cast<int32_t>(users);
  Rng gen_rng(11);
  auto gen_stats = gen::GenerateSyntheticBinary(config, &gen_rng,
                                                "interaction_interest", path);
  if (!gen_stats.ok()) {
    state.SkipWithError("generate failed");
    return;
  }
  auto view = io::InstanceView::Open(path);
  if (!view.ok()) {
    state.SkipWithError("open failed");
    return;
  }
  auto instance = io::MaterializeInstance(
      std::make_shared<const io::InstanceView>(std::move(*view)));
  if (!instance.ok()) {
    state.SkipWithError("materialize failed");
    return;
  }

  core::ShardedSolveOptions options;  // default 8192 users per shard
  core::ShardedSolveStats stats;
  for (auto _ : state) {
    Rng rng(3);
    auto arrangement = core::ShardedSolve(*instance, &rng, options, &stats);
    if (!arrangement.ok()) {
      state.SkipWithError("solve failed");
      break;
    }
    benchmark::DoNotOptimize(arrangement);
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(state.iterations() * users);
  state.counters["shards"] =
      benchmark::Counter(static_cast<double>(stats.num_shards));
  state.counters["columns"] =
      benchmark::Counter(static_cast<double>(stats.num_columns));
  state.counters["gap"] = benchmark::Counter(stats.gap);
}

/// Same instance and solve as BM_ShardedSolve, but catalogs spill to the
/// per-run igepa-cat,2 file and level 2 runs on mmapped views under a
/// residency budget sized to roughly half the shard catalogs — in-memory vs
/// budgeted at the same size is the spill overhead, tracked by
/// bench_compare.py alongside the in-memory rows.
void BM_ShardedSolveSpill(benchmark::State& state) {
  const auto users = state.range(0);
  const std::string path = ScratchPath(users);
  gen::SyntheticConfig config;
  config.num_events = 200;
  config.num_users = static_cast<int32_t>(users);
  Rng gen_rng(11);
  auto gen_stats = gen::GenerateSyntheticBinary(config, &gen_rng,
                                                "interaction_interest", path);
  if (!gen_stats.ok()) {
    state.SkipWithError("generate failed");
    return;
  }
  auto view = io::InstanceView::Open(path);
  if (!view.ok()) {
    state.SkipWithError("open failed");
    return;
  }
  auto instance = io::MaterializeInstance(
      std::make_shared<const io::InstanceView>(std::move(*view)));
  if (!instance.ok()) {
    state.SkipWithError("materialize failed");
    return;
  }

  core::ShardedSolveOptions options;
  core::ShardedSolveStats stats;
  // Probe one run with everything resident to size the budget at half the
  // spilled catalog bytes (min one shard) — enough pressure to exercise
  // eviction without thrashing every acquisition.
  {
    core::ShardedSolveOptions probe = options;
    probe.memory_budget_bytes = uint64_t{1} << 40;
    Rng rng(3);
    auto arrangement = core::ShardedSolve(*instance, &rng, probe, &stats);
    if (!arrangement.ok()) {
      state.SkipWithError("probe solve failed");
      return;
    }
  }
  options.memory_budget_bytes =
      std::max(stats.shard_footprint_bytes, stats.spill_bytes / 2);
  for (auto _ : state) {
    Rng rng(3);
    auto arrangement = core::ShardedSolve(*instance, &rng, options, &stats);
    if (!arrangement.ok()) {
      state.SkipWithError("solve failed");
      break;
    }
    benchmark::DoNotOptimize(arrangement);
  }
  std::remove(path.c_str());
  state.SetItemsProcessed(state.iterations() * users);
  state.counters["shards"] =
      benchmark::Counter(static_cast<double>(stats.num_shards));
  state.counters["spill_mb"] = benchmark::Counter(
      static_cast<double>(stats.spill_bytes) / (1024.0 * 1024.0));
  state.counters["budget_mb"] = benchmark::Counter(
      static_cast<double>(options.memory_budget_bytes) / (1024.0 * 1024.0));
  state.counters["page_ins"] =
      benchmark::Counter(static_cast<double>(stats.page_ins));
  state.counters["evictions"] =
      benchmark::Counter(static_cast<double>(stats.evictions));
  state.counters["peak_resident_shards"] =
      benchmark::Counter(static_cast<double>(stats.peak_resident_shards));
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark_out=", 16) == 0 ||
        std::strcmp(argv[i], "--benchmark_out") == 0) {
      has_out = true;
    }
  }
  std::string out_flag = "--benchmark_out=BENCH_sharded.json";
  std::string fmt_flag = "--benchmark_out_format=json";
  if (!has_out) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }

  auto* bench = benchmark::RegisterBenchmark("BM_ShardedSolve",
                                             &BM_ShardedSolve);
  bench->Arg(20000)->Arg(100000)->Unit(benchmark::kMillisecond)
      ->Iterations(1);
  auto* spill = benchmark::RegisterBenchmark("BM_ShardedSolveSpill",
                                             &BM_ShardedSolveSpill);
  spill->Arg(20000)->Arg(100000)->Unit(benchmark::kMillisecond)
      ->Iterations(1);
  // The million-user rows are opt-in (minutes of wall clock): the nightly
  // bench workflow sets IGEPA_BENCH_1M=1 and archives the artifact.
  const char* want_1m = std::getenv("IGEPA_BENCH_1M");
  if (want_1m != nullptr && std::strcmp(want_1m, "0") != 0) {
    bench->Arg(1000000);
    spill->Arg(1000000);
  }

  int args_count = static_cast<int>(args.size());
  benchmark::Initialize(&args_count, args.data());
  if (benchmark::ReportUnrecognizedArguments(args_count, args.data())) {
    return 1;
  }
  benchmark::AddCustomContext("igepa_build_type",
#ifdef NDEBUG
                              "release"
#else
                              "debug"
#endif
  );
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
