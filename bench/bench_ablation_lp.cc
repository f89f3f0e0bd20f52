// Ablation: the LP tier behind line 1 of Algorithm 1 (DESIGN.md §6) — the
// exact dense simplex vs the structured block-angular dual — quality (LP
// objective, realized utility) and solve time at a medium scale where both
// run.

#include <cstdio>
#include <string>

#include "bench/bench_common.h"
#include "core/lp_packing.h"
#include "gen/synthetic.h"
#include "util/stats.h"

int main() {
  using namespace igepa;
  const int32_t repeats = bench::Repeats(10);
  gen::SyntheticConfig config;
  config.num_events = 60;
  config.num_users =
      static_cast<int32_t>(GetEnvInt("IGEPA_ABLATION_USERS", 400));

  struct Tier {
    std::string name;
    core::LpPackingOptions options;
  };
  std::vector<Tier> tiers;
  {
    Tier t;
    t.name = "DenseSimplex";
    t.options.benchmark_solver = core::BenchmarkSolverKind::kExact;
    tiers.push_back(t);
  }
  {
    Tier t;
    t.name = "StructuredDual";
    t.options.benchmark_solver = core::BenchmarkSolverKind::kStructuredDual;
    tiers.push_back(t);
  }

  std::printf("igepa ablation — benchmark-LP solver tier "
              "(|V|=%d, |U|=%d, %d repeats)\n\n",
              config.num_events, config.num_users, repeats);
  std::printf("%-16s %12s %12s %12s %12s\n", "tier", "lp_obj", "lp_gap",
              "utility", "solve_ms");

  Rng master(GetEnvInt("IGEPA_SEED", 20190408));
  for (const Tier& tier : tiers) {
    RunningStat lp_obj, gap, utility, ms;
    Rng sweep_master = master;  // identical instances across tiers
    for (int32_t rep = 0; rep < repeats; ++rep) {
      Rng rep_rng = sweep_master.Fork();
      auto instance = gen::GenerateSynthetic(config, &rep_rng);
      if (!instance.ok()) return 1;
      Rng alg_rng = rep_rng.Fork();
      core::LpPackingStats stats;
      Stopwatch watch;
      auto arrangement =
          core::LpPacking(*instance, &alg_rng, tier.options, &stats);
      if (!arrangement.ok()) {
        std::fprintf(stderr, "%s failed: %s\n", tier.name.c_str(),
                     arrangement.status().ToString().c_str());
        return 1;
      }
      ms.Add(watch.ElapsedMillis());
      lp_obj.Add(stats.lp_objective);
      gap.Add((stats.lp_upper_bound - stats.lp_objective) /
              std::max(1.0, stats.lp_upper_bound));
      utility.Add(arrangement->Utility(*instance));
    }
    std::printf("%-16s %12.2f %12.4f %12.2f %12.2f\n", tier.name.c_str(),
                lp_obj.mean(), gap.mean(), utility.mean(), ms.mean());
  }
  std::printf("\nexpected shape: both tiers reach near-identical utility; the "
              "structured dual trades a certified <=1%% LP gap for an orders-"
              "of-magnitude faster solve.\n");
  return 0;
}
