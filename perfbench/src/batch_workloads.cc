// The two batch workloads: the paper's own Algorithm-1 protocol
// (paper-batch) and the city-scale sharded solve under a residency budget
// (city-100k-budget).

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/admissible_catalog.h"
#include "core/lp_packing.h"
#include "core/sharded_solver.h"
#include "gen/meetup_sim.h"
#include "gen/streaming_gen.h"
#include "gen/synthetic.h"
#include "io/binary_instance.h"
#include "io/instance_io.h"
#include "workloads.h"

namespace perfbench {

using igepa::Rng;
using igepa::core::Arrangement;
using igepa::core::Instance;

namespace {

struct PaperInstance {
  std::string label;
  std::string path;
};

// Organizer-scale instances (users, events): small enough that kAuto routes
// them to the exact dense simplex, which is the tier they exercise.
constexpr std::pair<int32_t, int32_t> kOrganizerSizes[] = {
    {200, 40}, {230, 50}, {260, 60}, {290, 70},
    {320, 80}, {350, 90}, {400, 100}, {450, 60}};

// The instance set is this many independent draws of the paper's set. One
// draw's solve time swings by a third from seed to seed (the Meetup dual's
// iteration count and the dense simplex's pivots depend on the instance);
// six draws per pass cut that seed-to-seed spread by about 2.4x. Organizer
// sizes stop at 450 users so six draws fit the time one pass may take.
constexpr int kPaperDraws = 6;

// Writes the paper-batch instance set for `seed` and returns it in solve
// order: draw after draw, each Meetup SF, Table-I, Fig. 1(b) 10k and the
// organizer instances.
std::vector<PaperInstance> WritePaperInstances(const RunConfig& config,
                                               Report* report) {
  std::vector<PaperInstance> set;
  const auto write = [&](const std::string& label,
                         igepa::Result<Instance> instance) {
    const std::string path = config.workdir + "/" + label + ".csv";
    if (!report->Check(instance.ok(), "generate " + label)) return;
    report->Check(igepa::io::WriteInstanceCsv(*instance, path).ok(),
                  "write " + label);
    set.push_back({label, path});
  };
  for (int draw = 0; draw < kPaperDraws; ++draw) {
    const std::string suffix = "-" + std::to_string(draw);
    uint64_t stream = 100 * static_cast<uint64_t>(draw);
    {
      igepa::gen::MeetupConfig meetup;  // 190 events x 2811 users
      Rng rng(MixSeed(config.seed, stream++));
      write("meetup-sf" + suffix, igepa::gen::GenerateMeetup(meetup, &rng));
    }
    {
      igepa::gen::SyntheticConfig table1;  // Table I defaults: 200 x 2000
      Rng rng(MixSeed(config.seed, stream++));
      write("table1-default" + suffix,
            igepa::gen::GenerateSynthetic(table1, &rng));
    }
    {
      igepa::gen::SyntheticConfig fig1b;
      fig1b.num_users = 10000;
      Rng rng(MixSeed(config.seed, stream++));
      write("fig1b-10k" + suffix, igepa::gen::GenerateSynthetic(fig1b, &rng));
    }
    for (const auto& [users, events] : kOrganizerSizes) {
      igepa::gen::SyntheticConfig organizer;
      organizer.num_users = users;
      organizer.num_events = events;
      Rng rng(MixSeed(config.seed, stream++));
      write("organizer-" + std::to_string(users) + "x" +
                std::to_string(events) + suffix,
            igepa::gen::GenerateSynthetic(organizer, &rng));
    }
  }
  return set;
}

igepa::core::LpPackingOptions PaperOptions() {
  igepa::core::LpPackingOptions options;  // kAuto tier, alpha = 1
  options.num_threads = kSolverThreads;
  options.structured.num_threads = kSolverThreads;
  options.admissible.num_threads = kSolverThreads;
  return options;
}

}  // namespace

void RunPaperBatch(const RunConfig& config, Tracer* tracer, Report* report) {
  const std::vector<PaperInstance> files = WritePaperInstances(config, report);
  if (!report->correct()) return;
  ResetPeakRss();

  // ---- Set-up: load the instance set, several times; keep the last.
  // setup_s sums each file's median load CPU time over the repeats, which
  // filters a slow load of one file out of its repeat. ----
  std::vector<Instance> instances;
  std::vector<double> setup_s;
  std::vector<std::vector<double>> file_s(files.size());
  int64_t bytes = 0;
  for (double spent = 0.0; KeepSettingUp(setup_s, spent);) {
    Tracer::Span setup_span(tracer, "bench.setup");
    instances.clear();
    const double t0 = ProcessCpuSeconds();
    for (size_t i = 0; i < files.size(); ++i) {
      Tracer::Span span(tracer, "io.instance.load");
      const double f0 = ProcessCpuSeconds();
      auto loaded = igepa::io::ReadInstanceCsv(files[i].path);
      file_s[i].push_back(ProcessCpuSeconds() - f0);
      report->ops().Add(loaded.ok());
      if (!report->Check(loaded.ok(), "load " + files[i].label)) return;
      instances.push_back(std::move(loaded).value());
    }
    setup_s.push_back(ProcessCpuSeconds() - t0);
    spent += setup_s.back();
  }
  double typical_setup_s = 0.0;
  for (const auto& times : file_s) typical_setup_s += Median(times);
  for (const PaperInstance& file : files) {
    bytes += static_cast<int64_t>(std::filesystem::file_size(file.path));
  }

  // ---- Measured passes: LpPacking over the whole set until the window is
  // used. Repeats must reproduce the first pass bit for bit; when only one
  // pass fits, the first draw is solved again for that check. ----
  const igepa::core::LpPackingOptions options = PaperOptions();
  const size_t per_draw = instances.size() / kPaperDraws;
  std::vector<bool> solved(instances.size(), false);
  std::vector<ArrangementKey> first_pass(instances.size());
  std::vector<double> first_utility(instances.size(), 0.0);
  std::vector<bool> structured(instances.size(), false);
  std::vector<double> pass_s;
  // CPU time of each draw in each pass. solve_cpu_s sums, over the draws,
  // each draw's median over the passes: one pass at the typical time of
  // each of its draws.
  std::vector<std::vector<double>> draw_cpu_s(kPaperDraws);
  // First-pass CPU seconds by instance kind, for the human-readable block.
  std::map<std::string, double> kind_cpu_s;
  const auto solve = [&](size_t i) {
    Rng rng(MixSeed(config.seed, 10000 + i));
    igepa::core::LpPackingStats stats;
    const double c0 = ProcessCpuSeconds();
    auto arrangement =
        igepa::core::LpPacking(instances[i], &rng, options, &stats);
    if (!solved[i]) {
      const std::string& label = files[i].label;
      kind_cpu_s[label.substr(0, label.find('-'))] +=
          ProcessCpuSeconds() - c0;
    }
    report->ops().Add(arrangement.ok());
    if (!report->Check(arrangement.ok(), "LpPacking " + files[i].label)) {
      return false;
    }
    if (!solved[i]) {
      solved[i] = true;
      report->Check(arrangement->CheckFeasible(instances[i]).ok(),
                    "feasible " + files[i].label);
      first_pass[i] = KeyOf(*arrangement);
      first_utility[i] = arrangement->Utility(instances[i]);
      structured[i] = stats.used_structured_dual;
    } else {
      report->Check(KeyOf(*arrangement) == first_pass[i] &&
                        arrangement->Utility(instances[i]) == first_utility[i],
                    "repeat solve identical " + files[i].label);
    }
    return true;
  };
  const double window_end = NowSeconds() + config.seconds;
  while (pass_s.empty() || NowSeconds() < window_end) {
    const double t0 = NowSeconds();
    for (size_t first = 0; first < instances.size(); first += per_draw) {
      const double d0 = ProcessCpuSeconds();
      for (size_t i = first; i < first + per_draw; ++i) {
        if (!solve(i)) return;
      }
      draw_cpu_s[first / per_draw].push_back(ProcessCpuSeconds() - d0);
    }
    pass_s.push_back(NowSeconds() - t0);
  }
  double solve_cpu_s = 0.0;
  for (const auto& times : draw_cpu_s) solve_cpu_s += Median(times);
  for (size_t i = 0; pass_s.size() == 1 && i < per_draw; ++i) {
    if (!solve(i)) return;
  }
  double utility = 0.0;
  for (double u : first_utility) utility += u;

  int32_t dense = 0;
  for (bool s : structured) dense += s ? 0 : 1;
  std::string passes;
  for (double p : pass_s) passes += " " + Fmt(p);
  report->Note("instances: " + std::to_string(instances.size()) + " (" +
               std::to_string(dense) + " on the dense simplex); pass s:" +
               passes);
  std::string kinds;
  for (const auto& [kind, cpu_s] : kind_cpu_s) {
    kinds += " " + kind + " " + Fmt(cpu_s);
  }
  report->Note("first-pass CPU s by instance kind:" + kinds);
  report->EndToEnd("setup_s", typical_setup_s, "s",
                   "CPU; sum of per-file medians over " +
                       std::to_string(setup_s.size()) + " loads");
  report->EndToEnd("solve_cpu_s", solve_cpu_s, "s",
                   "sum over " + std::to_string(kPaperDraws) +
                       " draws of each draw's median over " +
                       std::to_string(pass_s.size()) + " passes");
  report->EndToEnd("solve_wall_s", Median(pass_s), "s",
                   "median of " + std::to_string(pass_s.size()) + " passes");
  report->EndToEnd("utility", utility, "util", "summed over the set");
  report->EndToEnd("peak_rss_mb", PeakRssMiB(), "MiB");

  if (!tracer->enabled()) return;
  // ---- Traced pass: the same LpPacking sequence through its public step
  // functions, each wrapped in its layer's span, pinned bit-identical to
  // the untraced pass. The first draw's steps also run with a disabled
  // Tracer first: the same work, so the two times give the overhead. ----
  int64_t dual_iterations = 0;
  int64_t columns = 0;
  int64_t kept = 0;
  int64_t sampled = 0;
  const auto step_solve = [&](size_t i, Tracer* t) {
    Tracer::Span solve_span(t, "bench.solve", static_cast<int64_t>(i));
    Rng rng(MixSeed(config.seed, 10000 + i));
    igepa::core::AdmissibleCatalog catalog;
    {
      Tracer::Span span(t, "core.catalog.build");
      catalog = igepa::core::AdmissibleCatalog::Build(instances[i],
                                                       options.admissible);
    }
    igepa::Result<igepa::core::FractionalSolution> fractional =
        igepa::Status::Internal("unset");
    {
      Tracer::Span span(t, structured[i] ? "core.dual.solve"
                                         : "lp.dense.solve");
      fractional = igepa::core::SolveBenchmarkLpForPacking(instances[i],
                                                           catalog, options);
    }
    if (!report->Check(fractional.ok() &&
                           fractional->structured == structured[i],
                       "traced LP tier " + files[i].label)) {
      return false;
    }
    igepa::core::LpPackingStats stats;
    igepa::Result<Arrangement> arrangement = igepa::Status::Internal("unset");
    {
      Tracer::Span span(t, "core.round.round");
      arrangement = igepa::core::RoundFractional(
          instances[i], catalog, *fractional, &rng, options, &stats);
    }
    if (!report->Check(arrangement.ok() &&
                           KeyOf(*arrangement) == first_pass[i],
                       "step solve == LpPacking " + files[i].label)) {
      return false;
    }
    if (t->enabled()) {
      columns += catalog.num_columns();
      if (structured[i]) dual_iterations += fractional->lp.iterations;
      kept += arrangement->size();
      sampled += arrangement->size() + stats.pairs_repaired;
    }
    return true;
  };
  double untraced_draw_s = 0.0;
  {
    Tracer untraced(false);
    const double t0 = NowSeconds();
    for (size_t i = 0; i < per_draw; ++i) {
      if (!step_solve(i, &untraced)) return;
    }
    untraced_draw_s = NowSeconds() - t0;
  }
  double traced_s = 0.0;
  double traced_draw_s = 0.0;
  {
    const double t0 = NowSeconds();
    Tracer::Span pass_span(tracer, "bench.pass");
    for (size_t i = 0; i < instances.size(); ++i) {
      if (i == per_draw) traced_draw_s = NowSeconds() - t0;
      if (!step_solve(i, tracer)) return;
    }
    traced_s = NowSeconds() - t0;
  }
  ReportLayerTimes(*tracer, traced_s,
                   {{"lp.dense.solve", "lp.dense.solve_s"},
                    {"core.catalog.build", "core.catalog.build_s"},
                    {"core.dual.solve", "core.dual.solve_s"},
                    {"core.round.round", "core.round.round_s"}},
                   1.0, report);
  report->Layer("io.instance.load_s", typical_setup_s, "s");
  report->Layer("io.instance.bytes", static_cast<double>(bytes), "B");
  report->Layer("lp.dense.solves", dense, "count");
  report->Layer("core.catalog.columns", static_cast<double>(columns), "count");
  report->Layer("core.dual.iterations", static_cast<double>(dual_iterations),
                "count");
  report->Layer("core.round.kept_frac",
                sampled > 0 ? static_cast<double>(kept) / sampled : 0.0,
                "frac");
  report->Layer("bench.trace.overhead_frac",
                traced_draw_s / untraced_draw_s - 1.0, "frac");
  report->Layer("bench.trace.coverage_frac", tracer->Coverage("bench.pass"),
                "frac");
}

void RunCityBudget(const RunConfig& config, Tracer* tracer, Report* report) {
  constexpr int32_t kUsers = 100000;
  constexpr uint64_t kBudgetBytes = 8ull << 20;
  const std::string path = config.workdir + "/city-100k.bin";
  {
    igepa::gen::SyntheticConfig city;  // Table-I capacities, 200 events
    city.num_users = kUsers;
    Rng rng(MixSeed(config.seed, 1));
    auto written = igepa::gen::GenerateSyntheticBinary(
        city, &rng, "interaction_interest", path);
    if (!report->Check(written.ok(), "generate city instance")) return;
  }
  ResetPeakRss();

  // ---- Set-up: map + validate + materialize, several times. ----
  igepa::Result<Instance> instance = igepa::Status::Internal("unset");
  std::vector<double> setup_s;
  for (double spent = 0.0; KeepSettingUp(setup_s, spent);) {
    Tracer::Span setup_span(tracer, "bench.setup");
    const double t0 = ProcessCpuSeconds();
    Tracer::Span span(tracer, "io.instance.load");
    auto view = igepa::io::InstanceView::Open(path);
    report->ops().Add(view.ok());
    if (!report->Check(view.ok(), "open city instance")) return;
    instance = igepa::io::MaterializeInstance(
        std::make_shared<const igepa::io::InstanceView>(std::move(*view)));
    report->ops().Add(instance.ok());
    if (!report->Check(instance.ok(), "materialize city instance")) return;
    setup_s.push_back(ProcessCpuSeconds() - t0);
    spent += setup_s.back();
  }

  igepa::core::ShardedSolveOptions options;  // 8192 users per shard
  options.memory_budget_bytes = kBudgetBytes;
  options.spill_dir = config.workdir;
  options.num_threads = kSolverThreads;
  const auto solve = [&](const igepa::core::ShardedSolveOptions& opts,
                         igepa::core::ShardedSolveStats* stats) {
    Rng rng(MixSeed(config.seed, 2));
    auto arrangement = igepa::core::ShardedSolve(*instance, &rng, opts, stats);
    report->ops().Add(arrangement.ok());
    return arrangement;
  };

  ArrangementKey first;
  igepa::core::ShardedSolveStats stats;
  double utility = 0.0;
  std::vector<double> solve_s;
  std::vector<double> solve_cpu_s;
  const double window_end = NowSeconds() + config.seconds;
  while (solve_s.size() < 2 || NowSeconds() < window_end) {
    const double t0 = NowSeconds();
    const double c0 = ProcessCpuSeconds();
    auto arrangement = solve(options, &stats);
    solve_cpu_s.push_back(ProcessCpuSeconds() - c0);
    solve_s.push_back(NowSeconds() - t0);
    if (!report->Check(arrangement.ok(), "ShardedSolve")) return;
    if (solve_s.size() == 1) {
      report->Check(arrangement->CheckFeasible(*instance).ok(),
                    "city arrangement feasible");
      report->Check(stats.gap <= options.coordination_gap,
                    "certified gap <= coordination_gap");
      first = KeyOf(*arrangement);
      utility = arrangement->Utility(*instance);
    } else {
      report->Check(KeyOf(*arrangement) == first, "repeat solve identical");
    }
  }
  std::string solves;
  for (size_t k = 0; k < solve_s.size(); ++k) {
    solves += " " + Fmt(solve_s[k]) + "/" + Fmt(solve_cpu_s[k]);
  }
  report->Note("solve s (wall/CPU):" + solves);
  report->Note("shards " + std::to_string(stats.num_shards) + ", columns " +
               std::to_string(stats.num_columns) + ", gap " +
               Fmt(stats.gap) + ", coordination iterations " +
               std::to_string(stats.coordination_iterations) +
               ", level-1 iterations " +
               std::to_string(stats.level1_iterations) + ", budget " +
               std::to_string(kBudgetBytes) + " B, largest shard " +
               std::to_string(stats.shard_footprint_bytes) + " B");
  report->EndToEnd("setup_s", Median(setup_s), "s",
                   "CPU; median of " + std::to_string(setup_s.size()) +
                       " loads");
  report->EndToEnd("solve_cpu_s", Median(solve_cpu_s), "s",
                   "median of " + std::to_string(solve_cpu_s.size()) +
                       " solves");
  report->EndToEnd("solve_wall_s", Median(solve_s), "s",
                   "median of " + std::to_string(solve_s.size()) + " solves");
  report->EndToEnd("utility", utility, "util");
  report->EndToEnd("peak_rss_mb", PeakRssMiB(), "MiB");

  if (!tracer->enabled()) return;
  // ---- Traced solve at the workload's thread count, then one solve with a
  // thread per core: the thread curve on the cores this machine has. ----
  double traced_s = 0.0;
  {
    Tracer::Span pass_span(tracer, "bench.pass");
    const double t0 = NowSeconds();
    igepa::core::ShardedSolveStats traced_stats;
    igepa::Result<Arrangement> arrangement = igepa::Status::Internal("unset");
    {
      Tracer::Span span(tracer, "core.sharded.solve", 0);
      arrangement = solve(options, &traced_stats);
    }
    traced_s = NowSeconds() - t0;
    report->Check(arrangement.ok() && KeyOf(*arrangement) == first,
                  "traced solve identical");
  }
  double parallel_s = 0.0;
  double parallel_cpu_s = 0.0;
  {
    igepa::core::ShardedSolveOptions parallel = options;
    parallel.num_threads = kParallelThreads;
    igepa::core::ShardedSolveStats parallel_stats;
    Tracer::Span span(tracer, "bench.thread_curve", 1);
    const double t0 = NowSeconds();
    const double c0 = ProcessCpuSeconds();
    auto arrangement = solve(parallel, &parallel_stats);
    parallel_cpu_s = ProcessCpuSeconds() - c0;
    parallel_s = NowSeconds() - t0;
    report->Check(arrangement.ok() && KeyOf(*arrangement) == first,
                  std::to_string(kParallelThreads) +
                      "-thread solve identical to the measured one");
  }
  const double measured_s = Median(solve_s);
  report->Note("threads: " + std::to_string(kSolverThreads) + "-thread " +
               Fmt(measured_s) + " s (median) vs " +
               std::to_string(kParallelThreads) + "-thread " +
               Fmt(parallel_s) + " s");
  report->Layer("io.instance.load_s", Median(setup_s), "s");
  report->Layer("io.instance.bytes",
                static_cast<double>(std::filesystem::file_size(path)), "B");
  report->Layer("core.sharded.solve_s", traced_s, "s");
  report->Layer("core.sharded.level1_iterations",
                static_cast<double>(stats.level1_iterations), "count");
  report->Layer("core.sharded.coordination_iterations",
                static_cast<double>(stats.coordination_iterations), "count");
  report->Layer("core.sharded.gap", stats.gap, "frac");
  report->Layer("core.sharded.cpu_util",
                parallel_cpu_s / (parallel_s * kParallelThreads), "frac");
  report->Layer("core.sharded.speedup", measured_s / parallel_s, "x");
  report->Layer("core.residency.page_ins", static_cast<double>(stats.page_ins),
                "count");
  report->Layer("core.residency.evictions",
                static_cast<double>(stats.evictions), "count");
  report->Layer("core.residency.peak_resident_bytes",
                static_cast<double>(stats.peak_resident_bytes), "B");
  report->Layer("io.spill.bytes", static_cast<double>(stats.spill_bytes), "B");
  // The last measured solve is the same call without its span.
  report->Layer("bench.trace.overhead_frac", traced_s / solve_s.back() - 1.0,
                "frac");
  report->Layer("bench.trace.coverage_frac", tracer->Coverage("bench.pass"),
                "frac");
}

}  // namespace perfbench
