// google-benchmark microbenchmarks for the LP substrate: the dense simplex on
// random packing LPs and the structured solver on benchmark LPs.

#include <benchmark/benchmark.h>

#include "core/admissible_catalog.h"
#include "core/benchmark_dual.h"
#include "core/benchmark_lp.h"
#include "core/lp_packing.h"
#include "gen/synthetic.h"
#include "lp/dense_simplex.h"
#include "util/rng.h"

namespace {

using namespace igepa;

lp::LpModel MakePackingLp(int32_t rows, int32_t cols, uint64_t seed) {
  Rng rng(seed);
  lp::LpModel m;
  for (int32_t i = 0; i < rows; ++i) {
    m.AddRow(lp::Sense::kLe, 1.0 + 4.0 * rng.NextDouble());
  }
  for (int32_t j = 0; j < cols; ++j) {
    const int32_t nnz = 1 + static_cast<int32_t>(rng.NextIndex(3));
    std::vector<lp::ColumnEntry> entries;
    for (size_t r : rng.SampleIndices(static_cast<size_t>(rows),
                                      static_cast<size_t>(nnz))) {
      entries.push_back({static_cast<int32_t>(r),
                         0.05 + 0.95 * rng.NextDouble()});
    }
    m.AddColumn(0.05 + 0.95 * rng.NextDouble(), 0.0, 1.0, std::move(entries));
  }
  return m;
}

void BM_DenseSimplex(benchmark::State& state) {
  const auto m = MakePackingLp(static_cast<int32_t>(state.range(0)),
                               static_cast<int32_t>(state.range(1)), 42);
  for (auto _ : state) {
    auto sol = lp::DenseSimplex().Solve(m);
    benchmark::DoNotOptimize(sol);
  }
}
BENCHMARK(BM_DenseSimplex)->Args({20, 60})->Args({50, 200})->Args({100, 500});

// Catalog entry point: the solver iterates the shared CSR directly, no
// per-solve model copy.
void BM_StructuredDual_Catalog(benchmark::State& state) {
  Rng rng(7);
  gen::SyntheticConfig config;
  config.num_users = static_cast<int32_t>(state.range(0));
  auto instance = gen::GenerateSynthetic(config, &rng);
  const auto catalog = core::AdmissibleCatalog::Build(*instance, {});
  for (auto _ : state) {
    auto sol = core::SolveBenchmarkLpStructured(*instance, catalog, {});
    benchmark::DoNotOptimize(sol);
  }
  state.counters["columns"] = static_cast<double>(catalog.num_columns());
}
BENCHMARK(BM_StructuredDual_Catalog)->Arg(500)->Arg(2000)->Arg(5000);

void BM_BuildBenchmarkLp(benchmark::State& state) {
  Rng rng(7);
  gen::SyntheticConfig config;
  config.num_users = static_cast<int32_t>(state.range(0));
  auto instance = gen::GenerateSynthetic(config, &rng);
  const auto catalog = core::AdmissibleCatalog::Build(*instance, {});
  for (auto _ : state) {
    auto bench = core::BuildBenchmarkLp(*instance, catalog);
    benchmark::DoNotOptimize(bench);
  }
}
BENCHMARK(BM_BuildBenchmarkLp)->Arg(500)->Arg(2000);

}  // namespace

BENCHMARK_MAIN();
