#include "cli/commands.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <memory>
#include <thread>

#include "algo/baselines.h"
#include "algo/online.h"
#include "core/instance_delta.h"
#include "core/lp_packing.h"
#include "core/sharded_solver.h"
#include "exp/load_test.h"
#include "exp/replay.h"
#include "exp/report.h"
#include "exp/serve_driver.h"
#include "gen/arrival_process.h"
#include "gen/delta_stream.h"
#include "gen/meetup_sim.h"
#include "gen/streaming_gen.h"
#include "gen/synthetic.h"
#include "io/binary_instance.h"
#include "io/delta_io.h"
#include "io/instance_io.h"
#include "serve/arrangement_service.h"
#include "util/flags.h"
#include "util/rng.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace igepa {
namespace cli {
namespace {

int Fail(std::ostream& err, const Status& status) {
  err << "error: " << status.ToString() << "\n";
  return 1;
}

constexpr char kKernelHelp[] =
    "utility kernel scoring w(u,S): interaction_interest | interest_only | "
    "cohesion (default: whatever the instance file pins; v1 files pin the "
    "paper's interaction_interest)";

/// Resolves --kernel and installs it on the instance (before any catalog is
/// built, so every downstream weight comes from the requested objective). An
/// empty flag keeps the instance's kernel — for v2 CSVs the one the file
/// pins, otherwise the default.
Status ApplyKernelFlag(const ArgParser& parser, core::Instance* instance) {
  const std::string& id = parser.GetString("kernel");
  if (id.empty()) return Status::OK();
  auto kernel = core::MakeUtilityKernel(id);
  IGEPA_RETURN_IF_ERROR(kernel.status());
  instance->set_kernel(std::move(*kernel));
  return Status::OK();
}

/// Loads an instance from either on-disk format, auto-detected by magic:
/// `igepa-bin,4` files open through the mmap view (FORMATS.md §8) and
/// materialize without ever allocating a dense interest table; anything else
/// goes through the CSV reader. Every instance-consuming subcommand routes
/// here, so binary instances work wherever CSV ones do.
Result<core::Instance> LoadInstanceAuto(const std::string& path) {
  if (io::SniffBinaryInstance(path)) {
    IGEPA_ASSIGN_OR_RETURN(io::InstanceView view, io::InstanceView::Open(path));
    return io::MaterializeInstance(
        std::make_shared<const io::InstanceView>(std::move(view)));
  }
  return io::ReadInstanceCsv(path);
}

// ---- generate --------------------------------------------------------------

int CmdGenerate(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err) {
  ArgParser parser("igepa generate", "sample an IGEPA instance to CSV");
  parser.AddString("kind", "synthetic", "generator: synthetic | meetup");
  parser.AddString("out", "", "output path (required)");
  parser.AddBool("binary", false,
                 "stream an igepa-bin,4 binary instance (FORMATS.md §8) "
                 "instead of CSV — bounded memory at any |U| (synthetic "
                 "only)");
  parser.AddInt("seed", 20190408, "random seed");
  parser.AddInt("events", 200, "number of events |V|");
  parser.AddInt("users", 2000, "number of users |U|");
  parser.AddInt("max-cv", 50, "maximum event capacity (synthetic)");
  parser.AddInt("max-cu", 4, "maximum user capacity (synthetic)");
  parser.AddDouble("pcf", 0.3, "event conflict probability (synthetic)");
  parser.AddDouble("pdeg", 0.5, "friendship probability (synthetic)");
  parser.AddDouble("beta", 0.5, "interest/interaction balance");
  parser.AddString("kernel", "", kKernelHelp);
  parser.AddBool("help", false, "show this help");
  if (Status s = parser.Parse(args); !s.ok()) return Fail(err, s);
  if (parser.GetBool("help")) {
    out << parser.Usage();
    return 0;
  }
  if (parser.GetString("out").empty()) {
    return Fail(err, Status::InvalidArgument("--out is required"));
  }

  Rng rng(static_cast<uint64_t>(parser.GetInt("seed")));
  Result<core::Instance> instance = Status::Internal("unset");
  const std::string& kind = parser.GetString("kind");
  if (kind == "synthetic") {
    gen::SyntheticConfig config;
    config.num_events = static_cast<int32_t>(parser.GetInt("events"));
    config.num_users = static_cast<int32_t>(parser.GetInt("users"));
    config.max_event_capacity = static_cast<int32_t>(parser.GetInt("max-cv"));
    config.max_user_capacity = static_cast<int32_t>(parser.GetInt("max-cu"));
    config.p_conflict = parser.GetDouble("pcf");
    config.p_friend = parser.GetDouble("pdeg");
    config.beta = parser.GetDouble("beta");
    if (parser.GetBool("binary")) {
      // The streaming path: the instance is never held in memory, so this is
      // the only route that reaches |U| in the millions.
      const std::string kernel_id =
          parser.GetString("kernel").empty()
              ? core::DefaultUtilityKernel()->id()
              : parser.GetString("kernel");
      auto written = gen::GenerateSyntheticBinary(config, &rng, kernel_id,
                                                  parser.GetString("out"));
      if (!written.ok()) return Fail(err, written.status());
      out << "wrote " << parser.GetString("out") << ": igepa-bin,4, "
          << config.num_events << " events, " << config.num_users
          << " users, " << written->num_bids << " bids, "
          << written->num_conflicts << " conflicts [" << kernel_id << "]\n";
      return 0;
    }
    instance = gen::GenerateSynthetic(config, &rng);
  } else if (kind == "meetup") {
    if (parser.GetBool("binary")) {
      return Fail(err, Status::InvalidArgument(
                           "--binary supports --kind synthetic only"));
    }
    gen::MeetupConfig config;
    if (parser.Provided("events")) {
      config.num_events = static_cast<int32_t>(parser.GetInt("events"));
    }
    if (parser.Provided("users")) {
      config.num_users = static_cast<int32_t>(parser.GetInt("users"));
    }
    config.beta = parser.GetDouble("beta");
    instance = gen::GenerateMeetup(config, &rng);
  } else {
    return Fail(err, Status::InvalidArgument("unknown --kind '" + kind +
                                             "' (synthetic | meetup)"));
  }
  if (!instance.ok()) return Fail(err, instance.status());
  // A non-default kernel makes the written file format v2 (the kernel record
  // pins the objective for every later solve/replay/serve of the file).
  if (Status s = ApplyKernelFlag(parser, &*instance); !s.ok()) {
    return Fail(err, s);
  }
  if (Status s = io::WriteInstanceCsv(*instance, parser.GetString("out"));
      !s.ok()) {
    return Fail(err, s);
  }
  out << "wrote " << parser.GetString("out") << ": "
      << exp::DescribeInstance(*instance) << "\n";
  return 0;
}

// ---- solve -----------------------------------------------------------------

int CmdSolve(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err) {
  ArgParser parser("igepa solve", "arrange an instance CSV");
  parser.AddString("in", "", "instance path, CSV or igepa-bin,4 (required)");
  parser.AddString("out", "", "optional arrangement CSV output path");
  parser.AddString("algorithm", "lp-packing",
                   "lp-packing | gg | gbs | random-u | random-v | online");
  parser.AddDouble("alpha", 1.0, "LP-packing sampling scale in (0,1]");
  parser.AddInt("seed", 42, "random seed for randomized algorithms");
  parser.AddInt("threads", 0,
                "worker threads for enumeration, LP solve and rounding "
                "(0 = hardware concurrency; results are identical for every "
                "value)");
  parser.AddBool("sharded", false,
                 "two-level sharded solve (lp-packing only): per-shard "
                 "catalogs + warm duals, coordinated event prices, one "
                 "global legalize sweep — the 100k+/1M-user path");
  parser.AddInt("shards", 0,
                "sharded solve: shard count (0 = derive from shard width; "
                "results are identical for every thread count at a fixed "
                "shard count)");
  parser.AddInt("memory-budget-mb", 0,
                "sharded solve: catalog residency budget in MB (0 = keep "
                "all shard catalogs in RAM). When set, catalogs spill to a "
                "per-run igepa-cat,2 file after level 1 and level 2 runs on "
                "mmapped views under an LRU manager, bounding peak catalog "
                "RSS by (budget + one shard); results are byte-identical "
                "for any budget");
  parser.AddString("kernel", "", kKernelHelp);
  parser.AddBool("help", false, "show this help");
  if (Status s = parser.Parse(args); !s.ok()) return Fail(err, s);
  if (parser.GetBool("help")) {
    out << parser.Usage();
    return 0;
  }
  if (parser.GetString("in").empty()) {
    return Fail(err, Status::InvalidArgument("--in is required"));
  }
  if (parser.GetInt("threads") < 0) {
    return Fail(err, Status::InvalidArgument("--threads must be >= 0"));
  }
  if (parser.GetInt("shards") < 0) {
    return Fail(err, Status::InvalidArgument("--shards must be >= 0"));
  }
  auto instance = LoadInstanceAuto(parser.GetString("in"));
  if (!instance.ok()) return Fail(err, instance.status());
  if (Status s = ApplyKernelFlag(parser, &*instance); !s.ok()) {
    return Fail(err, s);
  }

  const auto threads = static_cast<int32_t>(parser.GetInt("threads"));
  Rng rng(static_cast<uint64_t>(parser.GetInt("seed")));
  const std::string& algorithm = parser.GetString("algorithm");
  if (parser.GetBool("sharded") && algorithm != "lp-packing") {
    return Fail(err, Status::InvalidArgument(
                         "--sharded requires --algorithm lp-packing"));
  }
  const int64_t memory_budget_mb = parser.GetInt("memory-budget-mb");
  if (memory_budget_mb < 0) {
    return Fail(err, Status::InvalidArgument(
                         "--memory-budget-mb must be >= 0"));
  }
  if (memory_budget_mb > 0 && !parser.GetBool("sharded")) {
    return Fail(err, Status::InvalidArgument(
                         "--memory-budget-mb requires --sharded"));
  }
  if (parser.GetInt("shards") > 0 && !parser.GetBool("sharded")) {
    return Fail(err, Status::InvalidArgument("--shards requires --sharded"));
  }
  Stopwatch watch;
  Result<core::Arrangement> arrangement = Status::Internal("unset");
  core::ShardedSolveStats sharded_stats;
  if (algorithm == "lp-packing" && parser.GetBool("sharded")) {
    core::ShardedSolveOptions options;
    options.alpha = parser.GetDouble("alpha");
    options.num_shards = static_cast<int32_t>(parser.GetInt("shards"));
    options.num_threads = threads;
    options.memory_budget_bytes =
        static_cast<uint64_t>(memory_budget_mb) << 20;
    arrangement =
        core::ShardedSolve(*instance, &rng, options, &sharded_stats);
  } else if (algorithm == "lp-packing") {
    core::LpPackingOptions options;
    options.alpha = parser.GetDouble("alpha");
    options.num_threads = threads;
    options.structured.num_threads = threads;
    options.admissible.num_threads = threads;
    arrangement = core::LpPacking(*instance, &rng, options);
  } else if (algorithm == "gg") {
    arrangement = algo::GreedyGg(*instance);
  } else if (algorithm == "gbs") {
    core::AdmissibleOptions admissible;
    admissible.num_threads = threads;
    const core::AdmissibleCatalog catalog =
        core::AdmissibleCatalog::Build(*instance, admissible);
    arrangement = algo::GreedyBestSet(*instance, catalog);
  } else if (algorithm == "random-u") {
    arrangement = algo::RandomU(*instance, &rng);
  } else if (algorithm == "random-v") {
    arrangement = algo::RandomV(*instance, &rng);
  } else if (algorithm == "online") {
    arrangement = algo::OnlineArrangeRandomOrder(*instance, &rng, {});
  } else {
    return Fail(err, Status::InvalidArgument("unknown --algorithm '" +
                                             algorithm + "'"));
  }
  if (!arrangement.ok()) return Fail(err, arrangement.status());
  const double seconds = watch.ElapsedSeconds();
  if (Status s = arrangement->CheckFeasible(*instance); !s.ok()) {
    return Fail(err, s);
  }
  // KernelUtility is the active kernel's SET objective — the quantity the
  // solve actually optimized, including non-pair-decomposable bonuses
  // (cohesion). Under the default kernel it equals the Definition-7
  // breakdown total; the interest/degree terms stay the Definition-7 split.
  const auto breakdown = arrangement->Breakdown(*instance);
  out << algorithm << " [" << instance->kernel().id() << "]: utility "
      << FormatDouble(arrangement->KernelUtility(*instance), 4)
      << " (interest "
      << FormatDouble(breakdown.interest_total, 4) << ", degree "
      << FormatDouble(breakdown.degree_total, 4) << ") over "
      << arrangement->size() << " pairs in "
      << FormatDouble(seconds * 1e3, 1) << " ms\n";
  if (parser.GetBool("sharded")) {
    out << "sharded: " << sharded_stats.num_shards << " shards, "
        << sharded_stats.num_columns << " columns, lp objective "
        << FormatDouble(sharded_stats.lp_objective, 4) << " (ub "
        << FormatDouble(sharded_stats.lp_upper_bound, 4) << ", gap "
        << FormatDouble(sharded_stats.gap, 4) << "), "
        << sharded_stats.coordination_iterations
        << " coordination iterations, " << sharded_stats.pairs_repaired
        << " pairs repaired\n";
    if (memory_budget_mb > 0) {
      out << "residency: spilled " << sharded_stats.spill_bytes
          << " catalog bytes (largest shard "
          << sharded_stats.shard_footprint_bytes << "), "
          << sharded_stats.page_ins << " page-ins, "
          << sharded_stats.evictions << " evictions, peak "
          << sharded_stats.peak_resident_shards << " resident shards ("
          << sharded_stats.peak_resident_bytes << " bytes)\n";
    }
  }
  if (!parser.GetString("out").empty()) {
    if (Status s =
            io::WriteArrangementCsv(*arrangement, parser.GetString("out"));
        !s.ok()) {
      return Fail(err, s);
    }
    out << "wrote " << parser.GetString("out") << "\n";
  }
  return 0;
}

// ---- evaluate ---------------------------------------------------------------

int CmdEvaluate(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err) {
  ArgParser parser("igepa evaluate",
                   "check an arrangement against an instance");
  parser.AddString("in", "", "instance path, CSV or igepa-bin,4 (required)");
  parser.AddString("arrangement", "", "arrangement CSV path (required)");
  parser.AddString("kernel", "", kKernelHelp);
  parser.AddBool("help", false, "show this help");
  if (Status s = parser.Parse(args); !s.ok()) return Fail(err, s);
  if (parser.GetBool("help")) {
    out << parser.Usage();
    return 0;
  }
  if (parser.GetString("in").empty() ||
      parser.GetString("arrangement").empty()) {
    return Fail(err,
                Status::InvalidArgument("--in and --arrangement are required"));
  }
  auto instance = LoadInstanceAuto(parser.GetString("in"));
  if (!instance.ok()) return Fail(err, instance.status());
  if (Status s = ApplyKernelFlag(parser, &*instance); !s.ok()) {
    return Fail(err, s);
  }
  auto arrangement = io::ReadArrangementCsv(parser.GetString("arrangement"));
  if (!arrangement.ok()) return Fail(err, arrangement.status());
  const Status feasible = arrangement->CheckFeasible(*instance);
  if (!feasible.ok()) {
    out << "INFEASIBLE: " << feasible.message() << "\n";
    return 2;
  }
  const auto breakdown = arrangement->Breakdown(*instance);
  out << "feasible: yes\n"
      << "pairs: " << arrangement->size() << "\n"
      << "utility: " << FormatDouble(arrangement->KernelUtility(*instance), 4)
      << "\n"
      << "  interest term (sum SI): "
      << FormatDouble(breakdown.interest_total, 4) << "\n"
      << "  degree term   (sum D) : "
      << FormatDouble(breakdown.degree_total, 4) << "\n";
  return 0;
}

// ---- describe ----------------------------------------------------------------

int CmdDescribe(const std::vector<std::string>& args, std::ostream& out,
                std::ostream& err) {
  ArgParser parser("igepa describe", "print instance statistics");
  parser.AddString("in", "", "instance path, CSV or igepa-bin,4 (required)");
  parser.AddBool("help", false, "show this help");
  if (Status s = parser.Parse(args); !s.ok()) return Fail(err, s);
  if (parser.GetBool("help")) {
    out << parser.Usage();
    return 0;
  }
  if (parser.GetString("in").empty()) {
    return Fail(err, Status::InvalidArgument("--in is required"));
  }
  auto instance = LoadInstanceAuto(parser.GetString("in"));
  if (!instance.ok()) return Fail(err, instance.status());
  out << exp::DescribeInstance(*instance) << "\n";
  // Bid-size histogram: a quick shape check for generated datasets.
  std::map<size_t, int32_t> histogram;
  for (core::UserId u = 0; u < instance->num_users(); ++u) {
    ++histogram[instance->bids(u).size()];
  }
  out << "bid-set sizes:";
  for (const auto& [size, count] : histogram) {
    out << " " << size << ":" << count;
  }
  out << "\n";
  return 0;
}

// ---- convert ---------------------------------------------------------------

int CmdConvert(const std::vector<std::string>& args, std::ostream& out,
               std::ostream& err) {
  ArgParser parser("igepa convert",
                   "convert an instance between CSV (FORMATS.md §1) and the "
                   "igepa-bin,4 memory-mapped binary format (§8); direction "
                   "is auto-detected from the input's magic");
  parser.AddString("in", "", "input instance path (required)");
  parser.AddString("out", "", "output instance path (required)");
  parser.AddBool("help", false, "show this help");
  if (Status s = parser.Parse(args); !s.ok()) return Fail(err, s);
  if (parser.GetBool("help")) {
    out << parser.Usage();
    return 0;
  }
  if (parser.GetString("in").empty() || parser.GetString("out").empty()) {
    return Fail(err, Status::InvalidArgument("--in and --out are required"));
  }
  const std::string& in_path = parser.GetString("in");
  const std::string& out_path = parser.GetString("out");
  const bool to_csv = io::SniffBinaryInstance(in_path);
  if (Status s = to_csv ? io::ConvertBinaryToCsv(in_path, out_path)
                        : io::ConvertCsvToBinary(in_path, out_path);
      !s.ok()) {
    return Fail(err, s);
  }
  out << "converted " << in_path << " -> " << out_path << " ("
      << (to_csv ? "binary -> csv" : "csv -> binary") << ")\n";
  return 0;
}

// ---- replay ----------------------------------------------------------------

int CmdReplay(const std::vector<std::string>& args, std::ostream& out,
              std::ostream& err) {
  ArgParser parser("igepa replay",
                   "stream an InstanceDelta sequence through the incremental "
                   "arrangement engine and report per-tick latency and "
                   "objective drift vs a cold re-solve");
  parser.AddString("in", "",
                   "instance CSV path (omit to generate a synthetic instance)");
  parser.AddString("deltas", "",
                   "delta stream CSV path (omit to generate a synthetic "
                   "stream)");
  parser.AddInt("ticks", 10, "number of delta ticks to replay");
  parser.AddInt("threads", 0,
                "worker threads for the solves (0 = hardware concurrency; "
                "results are identical for every value)");
  parser.AddInt("seed", 20190408, "master seed (generation + rounding)");
  parser.AddInt("events", 60, "synthetic instance: number of events");
  parser.AddInt("users", 400, "synthetic instance: number of users");
  parser.AddInt("updates-per-tick", 4,
                "synthetic stream: users touched per tick");
  parser.AddInt("event-updates-per-tick", 1,
                "synthetic stream: event capacity changes per tick");
  parser.AddInt("edge-updates-per-tick", 0,
                "synthetic stream: friendship-edge mutations per tick "
                "(weight-only deltas, re-scored through the kernel)");
  parser.AddInt("interest-updates-per-tick", 0,
                "synthetic stream: interest-drift mutations per tick "
                "(weight-only deltas, re-scored through the kernel)");
  parser.AddDouble("p-cancel", 0.2,
                   "synthetic stream: probability a touched user cancels");
  parser.AddDouble("alpha", 1.0, "LP-packing sampling scale in (0,1]");
  parser.AddDouble("compact-threshold", 0.25,
                   "compact the catalog when tombstoned columns exceed this "
                   "fraction");
  parser.AddInt("compact-min-dead", 256,
                "minimum tombstoned columns before compaction triggers");
  parser.AddDouble("check-tolerance", -1.0,
                   "exit non-zero when max LP drift vs cold exceeds this "
                   "(< 0: report only)");
  parser.AddString("kernel", "", kKernelHelp);
  parser.AddBool("no-cold", false,
                 "skip the per-tick cold reference (pure warm latency run)");
  parser.AddBool("help", false, "show this help");
  if (Status s = parser.Parse(args); !s.ok()) return Fail(err, s);
  if (parser.GetBool("help")) {
    out << parser.Usage();
    return 0;
  }
  if (parser.GetInt("ticks") <= 0) {
    return Fail(err, Status::InvalidArgument("--ticks must be > 0"));
  }
  if (parser.GetInt("threads") < 0) {
    return Fail(err, Status::InvalidArgument("--threads must be >= 0"));
  }
  if (parser.GetBool("no-cold") && parser.GetDouble("check-tolerance") >= 0) {
    return Fail(err, Status::InvalidArgument(
                         "--check-tolerance needs the cold reference "
                         "(drop --no-cold)"));
  }

  Rng rng(static_cast<uint64_t>(parser.GetInt("seed")));
  Result<core::Instance> instance = Status::Internal("unset");
  if (!parser.GetString("in").empty()) {
    instance = io::ReadInstanceCsv(parser.GetString("in"));
  } else {
    gen::SyntheticConfig config;
    config.num_events = static_cast<int32_t>(parser.GetInt("events"));
    config.num_users = static_cast<int32_t>(parser.GetInt("users"));
    instance = gen::GenerateSynthetic(config, &rng);
  }
  if (!instance.ok()) return Fail(err, instance.status());
  if (Status s = ApplyKernelFlag(parser, &*instance); !s.ok()) {
    return Fail(err, s);
  }

  std::vector<core::InstanceDelta> stream;
  if (!parser.GetString("deltas").empty()) {
    auto loaded = io::ReadDeltaStreamCsv(parser.GetString("deltas"));
    if (!loaded.ok()) return Fail(err, loaded.status());
    stream = std::move(*loaded);
    if (static_cast<int64_t>(stream.size()) > parser.GetInt("ticks") &&
        parser.Provided("ticks")) {
      stream.resize(static_cast<size_t>(parser.GetInt("ticks")));
    }
  } else {
    gen::DeltaStreamConfig config;
    config.num_ticks = static_cast<int32_t>(parser.GetInt("ticks"));
    config.user_updates_per_tick =
        static_cast<int32_t>(parser.GetInt("updates-per-tick"));
    config.event_updates_per_tick =
        static_cast<int32_t>(parser.GetInt("event-updates-per-tick"));
    config.graph_updates_per_tick =
        static_cast<int32_t>(parser.GetInt("edge-updates-per-tick"));
    config.interest_updates_per_tick =
        static_cast<int32_t>(parser.GetInt("interest-updates-per-tick"));
    config.p_cancel = parser.GetDouble("p-cancel");
    stream = gen::GenerateDeltaStream(*instance, config, &rng);
  }

  exp::ReplayOptions options;
  options.num_threads = static_cast<int32_t>(parser.GetInt("threads"));
  options.alpha = parser.GetDouble("alpha");
  options.compact_tombstone_fraction = parser.GetDouble("compact-threshold");
  options.compact_min_dead_columns =
      static_cast<int32_t>(parser.GetInt("compact-min-dead"));
  options.seed = static_cast<uint64_t>(parser.GetInt("seed")) ^
                 0x9E3779B97F4A7C15ULL;
  options.compare_cold = !parser.GetBool("no-cold");

  auto report = exp::RunReplay(*instance, stream, options);
  if (!report.ok()) return Fail(err, report.status());

  out << "replay: " << exp::DescribeInstance(*instance) << ", "
      << stream.size() << " ticks\n";
  out << "tick  users  events  cmpct  live-cols  warm-ms  cold-ms  "
         "warm-lp  cold-lp  drift\n";
  for (const exp::ReplayTick& row : report->ticks) {
    out << row.tick << "  " << row.touched_users << "  "
        << row.event_updates << "  " << (row.compacted ? "yes" : "no") << "  "
        << row.live_columns << "  "
        << FormatDouble(row.warm_seconds * 1e3, 2) << "  "
        << (options.compare_cold ? FormatDouble(row.cold_seconds * 1e3, 2)
                                 : std::string("-"))
        << "  " << FormatDouble(row.warm_lp_objective, 4) << "  "
        << (options.compare_cold ? FormatDouble(row.cold_lp_objective, 4)
                                 : std::string("-"))
        << "  "
        << (options.compare_cold ? FormatDouble(row.lp_drift, 6)
                                 : std::string("-"))
        << "\n";
  }
  out << "total warm " << FormatDouble(report->total_warm_seconds * 1e3, 1)
      << " ms";
  if (options.compare_cold) {
    out << ", total cold " << FormatDouble(report->total_cold_seconds * 1e3, 1)
        << " ms (speedup "
        << FormatDouble(report->total_warm_seconds > 0
                            ? report->total_cold_seconds /
                                  report->total_warm_seconds
                            : 0.0,
                        2)
        << "x), max LP drift " << FormatDouble(report->max_lp_drift, 6);
  }
  out << "\n";

  const double tolerance = parser.GetDouble("check-tolerance");
  if (tolerance >= 0.0) {
    if (report->max_lp_drift > tolerance) {
      err << "replay check FAILED: max LP drift "
          << FormatDouble(report->max_lp_drift, 6) << " > tolerance "
          << FormatDouble(tolerance, 6) << "\n";
      return 2;
    }
    out << "replay check OK: max LP drift within "
        << FormatDouble(tolerance, 6) << "\n";
  }
  return 0;
}

// ---- serve -----------------------------------------------------------------

void PrintEpochMetrics(std::ostream& out, const serve::EpochMetrics& row) {
  out << row.epoch << "  " << row.snapshot_version << "  "
      << row.deltas_coalesced << "  " << row.touched_users << "  "
      << row.event_updates << "  " << (row.compacted ? "yes" : "no") << "  "
      << row.live_columns << "  " << FormatDouble(row.epoch_seconds * 1e3, 2)
      << "  " << FormatDouble(row.lp_objective, 4) << "  "
      << FormatDouble(row.utility, 4) << "\n";
}

void PrintServiceStats(std::ostream& out, const serve::ServiceStats& stats) {
  const double throughput =
      stats.total_epoch_seconds > 0
          ? static_cast<double>(stats.deltas_applied) /
                stats.total_epoch_seconds
          : 0.0;
  out << "served " << stats.deltas_applied << " deltas in " << stats.epochs
      << " epochs (" << stats.deltas_rejected << " rejected, "
      << stats.deltas_pending << " pending), "
      << FormatDouble(throughput, 1) << " deltas/sec of epoch time\n"
      << "epoch ms p50/p99 " << FormatDouble(stats.p50_epoch_seconds * 1e3, 2)
      << "/" << FormatDouble(stats.p99_epoch_seconds * 1e3, 2)
      << ", publish-latency ms p50/p99 "
      << FormatDouble(stats.p50_publish_latency_seconds * 1e3, 2) << "/"
      << FormatDouble(stats.p99_publish_latency_seconds * 1e3, 2) << "\n"
      << "stage ms p50/p99 ingest "
      << FormatDouble(stats.p50_ingest_seconds * 1e3, 2) << "/"
      << FormatDouble(stats.p99_ingest_seconds * 1e3, 2) << ", solve "
      << FormatDouble(stats.p50_solve_seconds * 1e3, 2) << "/"
      << FormatDouble(stats.p99_solve_seconds * 1e3, 2) << ", commit "
      << FormatDouble(stats.p50_commit_seconds * 1e3, 2) << "/"
      << FormatDouble(stats.p99_commit_seconds * 1e3, 2)
      << " (pipeline depth " << stats.pipeline_depth << ", queue peaks "
      << stats.engine_queue_peak << "/" << stats.commit_queue_peak
      << ", ingest stalls " << stats.ingest_stalls << ")\n"
      << "snapshot v" << stats.snapshot_version << ": lp "
      << FormatDouble(stats.lp_objective, 4) << ", utility "
      << FormatDouble(stats.utility, 4) << "\n";
}

int CmdServe(const std::vector<std::string>& args, std::ostream& out,
             std::ostream& err) {
  ArgParser parser(
      "igepa serve",
      "run the long-running batched arrangement service over a timestamped "
      "arrival stream and report per-epoch metrics");
  parser.AddString("in", "",
                   "instance CSV path (omit to generate a synthetic instance)");
  parser.AddString("arrivals", "",
                   "arrival stream CSV path, '-' = stdin (omit to sample a "
                   "Poisson stream)");
  parser.AddInt("count", 200, "synthetic stream: number of arrivals");
  parser.AddDouble("rate", 200.0,
                   "synthetic stream: Poisson arrival rate "
                   "(mutations per second of stream time)");
  parser.AddDouble("p-cancel", 0.15,
                   "synthetic stream: cancellation share of the mutation mix");
  parser.AddDouble("p-event", 0.15,
                   "synthetic stream: event-capacity share of the mutation "
                   "mix (the rest re-registers)");
  parser.AddDouble("p-edge", 0.0,
                   "synthetic stream: friendship-edge share of the mutation "
                   "mix (weight-only deltas)");
  parser.AddDouble("p-interest", 0.0,
                   "synthetic stream: interest-drift share of the mutation "
                   "mix (weight-only deltas)");
  parser.AddInt("events", 60, "synthetic instance: number of events");
  parser.AddInt("users", 400, "synthetic instance: number of users");
  parser.AddDouble("epoch-ms", 100.0,
                   "epoch window: stream time per epoch (deterministic mode) "
                   "or wall-clock cadence (--realtime)");
  parser.AddInt("max-batch", 256, "most deltas coalesced into one epoch");
  parser.AddInt("queue-capacity", 1024,
                "pending deltas beyond this are rejected (backpressure)");
  parser.AddInt("pipeline-depth", 1,
                "background epoch pipelining: 1 = sequential epochs, >= 2 "
                "overlaps coalesce+WAL, solve and publish on stage threads "
                "(bit-identical snapshots for the same admitted batches)");
  parser.AddBool("realtime", false,
                 "drive the background epoch loop in wall-clock time, "
                 "replaying arrival gaps scaled by --speed (default: "
                 "deterministic virtual time)");
  parser.AddDouble("speed", 50.0, "realtime: replay speedup over stream time");
  parser.AddInt("threads", 0,
                "worker threads for the solves (0 = hardware concurrency; "
                "results are identical for every value)");
  parser.AddInt("seed", 20190408, "master seed (generation + service RNG)");
  parser.AddDouble("alpha", 1.0, "LP-packing sampling scale in (0,1]");
  parser.AddString("kernel", "", kKernelHelp);
  parser.AddString("sweep", "",
                   "instead of serving, run the throughput sweep over these "
                   "comma-separated epoch batch sizes (e.g. 1,16,256)");
  parser.AddBool("no-cold", false,
                 "sweep: skip the per-epoch cold-solve drift reference");
  parser.AddString("durable-dir", "",
                   "durable state directory (WAL + snapshot checkpoints); if "
                   "it already holds a snapshot the service RECOVERS from it "
                   "and resumes the arrival stream where the previous process "
                   "died, bit-identically");
  parser.AddInt("checkpoint-every", 16,
                "durable: snapshot cadence in completed epochs");
  parser.AddString("out-arrangement", "",
                   "write the final published arrangement to this CSV (the "
                   "crash-recovery gate diffs these byte-for-byte)");
  parser.AddBool("load-test", false,
                 "instead of serving a stream, run the open-loop Poisson "
                 "load harness against the background service (--rate, "
                 "--duration) and report throughput + latency percentiles");
  parser.AddDouble("duration", 10.0, "load test: arrival-phase seconds");
  parser.AddString("json", "",
                   "load test: also write the report as google-benchmark "
                   "JSON (tracked by scripts/bench_compare.py)");
  parser.AddBool("help", false, "show this help");
  if (Status s = parser.Parse(args); !s.ok()) return Fail(err, s);
  if (parser.GetBool("help")) {
    out << parser.Usage();
    return 0;
  }
  if (parser.GetInt("threads") < 0) {
    return Fail(err, Status::InvalidArgument("--threads must be >= 0"));
  }
  if (parser.GetInt("max-batch") < 1 || parser.GetInt("queue-capacity") < 1) {
    return Fail(err, Status::InvalidArgument(
                         "--max-batch and --queue-capacity must be >= 1"));
  }
  if (parser.GetInt("pipeline-depth") < 1) {
    return Fail(err, Status::InvalidArgument("--pipeline-depth must be >= 1"));
  }
  if (parser.GetDouble("epoch-ms") <= 0) {
    return Fail(err, Status::InvalidArgument("--epoch-ms must be > 0"));
  }

  Rng rng(static_cast<uint64_t>(parser.GetInt("seed")));
  Result<core::Instance> instance = Status::Internal("unset");
  if (!parser.GetString("in").empty()) {
    instance = io::ReadInstanceCsv(parser.GetString("in"));
  } else {
    gen::SyntheticConfig config;
    config.num_events = static_cast<int32_t>(parser.GetInt("events"));
    config.num_users = static_cast<int32_t>(parser.GetInt("users"));
    instance = gen::GenerateSynthetic(config, &rng);
  }
  if (!instance.ok()) return Fail(err, instance.status());
  if (Status s = ApplyKernelFlag(parser, &*instance); !s.ok()) {
    return Fail(err, s);
  }

  serve::ServeOptions options;
  options.num_threads = static_cast<int32_t>(parser.GetInt("threads"));
  options.max_batch = static_cast<int32_t>(parser.GetInt("max-batch"));
  options.queue_capacity =
      static_cast<int32_t>(parser.GetInt("queue-capacity"));
  options.epoch_ms = parser.GetDouble("epoch-ms");
  options.alpha = parser.GetDouble("alpha");
  options.seed = static_cast<uint64_t>(parser.GetInt("seed")) ^
                 0x9E3779B97F4A7C15ULL;
  options.durable_dir = parser.GetString("durable-dir");
  options.pipeline_depth =
      static_cast<int32_t>(parser.GetInt("pipeline-depth"));
  options.checkpoint_every =
      static_cast<int32_t>(parser.GetInt("checkpoint-every"));
  if (options.checkpoint_every < 1) {
    return Fail(err,
                Status::InvalidArgument("--checkpoint-every must be >= 1"));
  }

  // ---- Load-test mode: the exp:: open-loop Poisson harness. ---------------
  if (parser.GetBool("load-test")) {
    exp::LoadTestOptions load;
    load.duration_seconds = parser.GetDouble("duration");
    load.rate_per_second = parser.GetDouble("rate");
    // A stream of its own (decorrelated from the instance-generation draws).
    load.seed = static_cast<uint64_t>(parser.GetInt("seed")) ^
                0xC2B2AE3D27D4EB4FULL;
    load.arrivals.p_cancel = parser.GetDouble("p-cancel");
    load.arrivals.p_event_capacity = parser.GetDouble("p-event");
    load.arrivals.p_graph_edge = parser.GetDouble("p-edge");
    load.arrivals.p_interest_drift = parser.GetDouble("p-interest");
    load.arrivals.p_register = std::max(
        0.0, 1.0 - load.arrivals.p_cancel - load.arrivals.p_event_capacity -
                 load.arrivals.p_graph_edge - load.arrivals.p_interest_drift);
    load.serve = options;
    auto report = exp::RunLoadTest(*instance, load);
    if (!report.ok()) return Fail(err, report.status());
    out << "load test: " << exp::DescribeInstance(*instance) << ", "
        << FormatDouble(load.rate_per_second, 1) << "/s for "
        << FormatDouble(report->duration_seconds, 2) << " s (drained in "
        << FormatDouble(report->total_seconds, 2) << " s)\n";
    out << "arrivals " << report->arrivals_generated << ": "
        << report->deltas_submitted << " submitted, "
        << report->deltas_rejected << " rejected, " << report->deltas_applied
        << " applied in " << report->epochs << " epochs ("
        << FormatDouble(report->applied_per_second, 1) << " applied/s)\n";
    out << "queue depth max " << report->max_queue_depth << ", final "
        << report->final_queue_depth << "\n";
    out << "epoch ms p50/p99 "
        << FormatDouble(report->p50_epoch_seconds * 1e3, 2) << "/"
        << FormatDouble(report->p99_epoch_seconds * 1e3, 2)
        << ", publish-latency ms p50/p99 "
        << FormatDouble(report->p50_publish_latency_seconds * 1e3, 2) << "/"
        << FormatDouble(report->p99_publish_latency_seconds * 1e3, 2) << "\n";
    out << "stage ms p50/p99 ingest "
        << FormatDouble(report->p50_ingest_seconds * 1e3, 2) << "/"
        << FormatDouble(report->p99_ingest_seconds * 1e3, 2) << ", solve "
        << FormatDouble(report->p50_solve_seconds * 1e3, 2) << "/"
        << FormatDouble(report->p99_solve_seconds * 1e3, 2) << ", commit "
        << FormatDouble(report->p50_commit_seconds * 1e3, 2) << "/"
        << FormatDouble(report->p99_commit_seconds * 1e3, 2)
        << " (pipeline depth " << report->pipeline_depth << ", queue peaks "
        << report->engine_queue_peak << "/" << report->commit_queue_peak
        << ", ingest stalls " << report->ingest_stalls << ")\n";
    out << "final snapshot v" << report->snapshot_version << ": lp "
        << FormatDouble(report->final_lp_objective, 4) << ", utility "
        << FormatDouble(report->final_utility, 4) << "\n";
    if (!parser.GetString("json").empty()) {
      if (Status s = exp::WriteLoadTestJson(*report, load,
                                            parser.GetString("json"));
          !s.ok()) {
        return Fail(err, s);
      }
      out << "wrote " << parser.GetString("json") << "\n";
    }
    return 0;
  }

  std::vector<core::ArrivalEvent> arrivals;
  const std::string& arrivals_path = parser.GetString("arrivals");
  if (arrivals_path == "-") {
    auto loaded = io::ReadArrivalStreamCsv(std::cin, "<stdin>");
    if (!loaded.ok()) return Fail(err, loaded.status());
    arrivals = std::move(*loaded);
  } else if (!arrivals_path.empty()) {
    auto loaded = io::ReadArrivalStreamCsv(arrivals_path);
    if (!loaded.ok()) return Fail(err, loaded.status());
    arrivals = std::move(*loaded);
  } else {
    gen::ArrivalProcessConfig config;
    config.num_arrivals = static_cast<int32_t>(parser.GetInt("count"));
    config.rate_per_second = parser.GetDouble("rate");
    config.p_cancel = parser.GetDouble("p-cancel");
    config.p_event_capacity = parser.GetDouble("p-event");
    config.p_graph_edge = parser.GetDouble("p-edge");
    config.p_interest_drift = parser.GetDouble("p-interest");
    config.p_register =
        std::max(0.0, 1.0 - config.p_cancel - config.p_event_capacity -
                          config.p_graph_edge - config.p_interest_drift);
    arrivals = gen::GenerateArrivalProcess(*instance, config, &rng);
  }

  // ---- Sweep mode: the exp:: throughput driver. ---------------------------
  if (!parser.GetString("sweep").empty()) {
    exp::ServeSweepOptions sweep;
    sweep.batch_sizes.clear();
    for (const auto& tok : Split(parser.GetString("sweep"), ',')) {
      int64_t b = 0;
      if (!ParseInt(tok, &b) || b < 1) {
        return Fail(err, Status::InvalidArgument(
                             "--sweep: bad batch size '" + std::string(tok) +
                             "'"));
      }
      sweep.batch_sizes.push_back(static_cast<int32_t>(b));
    }
    sweep.num_threads = static_cast<int32_t>(parser.GetInt("threads"));
    sweep.alpha = parser.GetDouble("alpha");
    sweep.seed = static_cast<uint64_t>(parser.GetInt("seed")) ^
                 0x9E3779B97F4A7C15ULL;
    sweep.compare_cold = !parser.GetBool("no-cold");
    auto report = exp::RunServeSweep(*instance, arrivals, sweep);
    if (!report.ok()) return Fail(err, report.status());
    out << "serve sweep: " << exp::DescribeInstance(*instance) << ", "
        << arrivals.size() << " arrivals\n";
    out << "batch  epochs  deltas/s  epoch-ms-p50  epoch-ms-p99  "
           "publish-ms-p50  publish-ms-p99  max-drift\n";
    for (const exp::ServeSweepRow& row : report->rows) {
      out << row.max_batch << "  " << row.epochs << "  "
          << FormatDouble(row.deltas_per_second, 1) << "  "
          << FormatDouble(row.p50_epoch_seconds * 1e3, 2) << "  "
          << FormatDouble(row.p99_epoch_seconds * 1e3, 2) << "  "
          << FormatDouble(row.p50_publish_latency_seconds * 1e3, 2) << "  "
          << FormatDouble(row.p99_publish_latency_seconds * 1e3, 2) << "  "
          << (sweep.compare_cold ? FormatDouble(row.max_lp_drift, 6)
                                 : std::string("-"))
          << "\n";
    }
    return 0;
  }

  // ---- Service mode. ------------------------------------------------------
  // Durable dirs resume: a snapshot already there means a previous process
  // served part of this arrival stream and died — recover its exact state
  // and skip the arrivals it provably consumed (Stats().deltas_applied is
  // the arrival cursor: in the deterministic loop every epoch drains the
  // whole queue, so the applied count IS the index of the next arrival).
  std::unique_ptr<serve::ArrangementService> service;
  size_t resume_at = 0;
  if (!options.durable_dir.empty()) {
    auto recovered = serve::ArrangementService::Recover(options);
    if (recovered.ok()) {
      service = std::move(*recovered);
      resume_at = std::min(
          arrivals.size(),
          static_cast<size_t>(service->Stats().deltas_applied));
      out << "recovered from " << options.durable_dir << ": snapshot v"
          << service->Stats().snapshot_version << ", resuming at arrival "
          << resume_at << "/" << arrivals.size() << "\n";
    } else if (recovered.status().code() != StatusCode::kNotFound) {
      return Fail(err, recovered.status());
    }
  }
  if (service == nullptr) {
    auto created = serve::ArrangementService::Create(*instance, options);
    if (!created.ok()) return Fail(err, created.status());
    service = std::move(*created);
  }

  out << "serve: " << exp::DescribeInstance(*instance) << ", "
      << arrivals.size() << " arrivals, max-batch " << options.max_batch
      << ", epoch window " << FormatDouble(options.epoch_ms, 1) << " ms ("
      << (parser.GetBool("realtime") ? "realtime" : "virtual time") << ")\n";
  out << "epoch  version  deltas  users  events  cmpct  live-cols  ms  lp  "
         "utility\n";

  if (parser.GetBool("realtime")) {
    const double speed = std::max(1e-9, parser.GetDouble("speed"));
    if (Status s = service->Start(); !s.ok()) return Fail(err, s);
    Stopwatch wall;
    for (size_t i = resume_at; i < arrivals.size(); ++i) {
      const core::ArrivalEvent& arrival = arrivals[i];
      const double due = arrival.at_seconds / speed;
      const double now = wall.ElapsedSeconds();
      if (due > now) {
        // Per-arrival wait capped at 10 s wall: a corrupt or far-future
        // timestamp must not hang the replay.
        std::this_thread::sleep_for(
            std::chrono::duration<double>(std::min(due - now, 10.0)));
      }
      // Backpressure drops are tolerated (the service counts them in
      // deltas_rejected); any other rejection (e.g. out-of-range ids from a
      // stream addressing a bigger id space than the instance) is fatal,
      // matching the deterministic mode.
      if (Status s = service->Submit(arrival.delta);
          !s.ok() && s.code() != StatusCode::kResourceExhausted) {
        (void)service->Stop();
        return Fail(err, s);
      }
    }
    if (Status s = service->Stop(); !s.ok()) return Fail(err, s);
    for (const serve::EpochMetrics& row : service->MetricsHistory()) {
      PrintEpochMetrics(out, row);
    }
  } else {
    // Deterministic virtual time: epoch k covers arrivals with timestamps in
    // [k·W, (k+1)·W); empty windows are skipped, and a full batch forces an
    // epoch early exactly like the background loop would. A full QUEUE also
    // forces one (queue-capacity below max-batch would otherwise hit
    // backpressure before the batch trigger ever fired).
    const double window = options.epoch_ms / 1e3;
    double window_end = window;
    const int32_t force_epoch_at =
        std::min(options.max_batch, options.queue_capacity);
    int32_t pending = 0;
    auto run_epoch = [&]() -> Status {
      auto metrics = service->RunEpoch();
      IGEPA_RETURN_IF_ERROR(metrics.status());
      pending = 0;
      PrintEpochMetrics(out, *metrics);
      return Status::OK();
    };
    // Resume skips arrivals a recovered snapshot already consumed. Because
    // force_epoch_at ≤ queue capacity, every run_epoch drains the whole
    // queue, so the applied count is a clean cursor into the arrival list
    // and the absolute window boundaries below reproduce the reference
    // batching exactly.
    for (size_t i = resume_at; i < arrivals.size(); ++i) {
      const core::ArrivalEvent& arrival = arrivals[i];
      if (pending > 0 && arrival.at_seconds >= window_end) {
        if (Status s = run_epoch(); !s.ok()) return Fail(err, s);
      }
      if (arrival.at_seconds >= window_end) {
        // Closed-form jump: incrementing in a loop never terminates once
        // window_end exceeds ~2^52·window (adding one window is below ulp).
        window_end =
            (std::floor(arrival.at_seconds / window) + 1.0) * window;
      }
      if (Status s = service->Submit(arrival.delta); !s.ok()) {
        return Fail(err, s);
      }
      if (++pending >= force_epoch_at) {
        if (Status s = run_epoch(); !s.ok()) return Fail(err, s);
      }
    }
    while (service->Stats().deltas_pending > 0) {
      if (Status s = run_epoch(); !s.ok()) return Fail(err, s);
    }
  }
  PrintServiceStats(out, service->Stats());
  if (const std::string path = parser.GetString("out-arrangement");
      !path.empty()) {
    auto snapshot = service->snapshot();
    if (snapshot == nullptr) {
      return Fail(err, Status::Internal("service published no snapshot"));
    }
    if (Status s = io::WriteArrangementCsv(snapshot->arrangement(), path);
        !s.ok()) {
      return Fail(err, s);
    }
    out << "arrangement -> " << path << "\n";
  }
  return 0;
}

// ---- command registry ------------------------------------------------------

using CommandFn = int (*)(const std::vector<std::string>&, std::ostream&,
                          std::ostream&);

struct Command {
  const char* name;
  const char* summary;
  CommandFn fn;
};

/// Every subcommand, in help order. `igepa --help` derives its listing from
/// this table, so a command cannot exist without being documented
/// (tests/cli/commands_test.cc pins the inverse: every listed name runs).
constexpr Command kCommands[] = {
    {"generate", "sample an IGEPA instance to CSV", CmdGenerate},
    {"solve", "arrange an instance CSV and report utility", CmdSolve},
    {"evaluate", "check an arrangement against an instance", CmdEvaluate},
    {"describe", "print instance statistics", CmdDescribe},
    {"convert", "convert an instance between CSV and igepa-bin,4 binary",
     CmdConvert},
    {"replay",
     "stream deltas through the incremental engine, warm vs cold per tick",
     CmdReplay},
    {"serve",
     "run the batched long-running arrangement service over an arrival "
     "stream",
     CmdServe},
};

std::string TopUsage() {
  std::string usage = "usage: igepa <command> [flags]\n\ncommands:\n";
  for (const Command& command : kCommands) {
    usage += "  ";
    usage += command.name;
    for (size_t i = std::char_traits<char>::length(command.name); i < 10;
         ++i) {
      usage += ' ';
    }
    usage += command.summary;
    usage += "\n";
  }
  usage += "\nrun `igepa <command> --help` for per-command flags\n";
  return usage;
}

}  // namespace

int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err) {
  if (args.empty() || args[0] == "--help" || args[0] == "help") {
    out << TopUsage();
    return args.empty() ? 1 : 0;
  }
  const std::string command = args[0];
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  for (const Command& entry : kCommands) {
    if (command == entry.name) return entry.fn(rest, out, err);
  }
  err << "unknown command '" << command << "'\n" << TopUsage();
  return 1;
}

}  // namespace cli
}  // namespace igepa
