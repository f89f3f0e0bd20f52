// The serve workload (serve-durable-5k): the durable, pipelined service with
// its WAL, checkpoints and a crash-recovery phase.
//
// It runs the service in its background mode under an open-loop Poisson
// delta stream (publish latency), then a closed-loop burst phase (how fast a
// registration burst drains). A traced run then replays the served batch
// sequence through the warm tick's public step functions to give per-layer
// times, pinned bit-identical to core::ApplyWarmTick and to the service's
// final snapshot.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/admissible_catalog.h"
#include "core/benchmark_dual.h"
#include "core/instance_delta.h"
#include "core/lp_packing.h"
#include "core/warm_tick.h"
#include "gen/arrival_process.h"
#include "gen/synthetic.h"
#include "io/instance_io.h"
#include "serve/arrangement_service.h"
#include "serve/checkpoint.h"
#include "serve/delta_wal.h"
#include "workloads.h"

namespace perfbench {

using igepa::Rng;
using igepa::Status;
using igepa::core::Arrangement;
using igepa::core::EventId;
using igepa::core::Instance;
using igepa::core::InstanceDelta;
using igepa::core::UserId;
using igepa::serve::ArrangementService;
using igepa::serve::ServeOptions;

namespace {

constexpr double kRate = 200.0;  // open-loop deltas per second
constexpr int32_t kMaxBatch = 256;
/// The open-loop phase offers kOpenLoopShare * --seconds worth of arrivals;
/// the burst phase then drains bursts of kBurstDeltas (four epochs) in
/// groups of four: kWarmupGroups untimed, then kBurstGroupsPerSecond *
/// --seconds measured. All are fixed counts, so a slower build does the
/// same work, only later. With checkpoints every 16 epochs, every group of
/// four bursts pays for exactly one checkpoint wherever the cadence falls.
constexpr double kOpenLoopShare = 0.4;
constexpr double kBurstGroupsPerSecond = 0.27;
constexpr int32_t kBurstDeltas = 4 * kMaxBatch;
/// Under back-to-back full batches the warm dual needs more iterations per
/// epoch than under the open loop's small batches: 25 per epoch at first,
/// rising over some 50 full epochs to a level where single epochs take
/// 100-800 around a median of about 500. The first bursts thus drain
/// several times faster than later ones. The warm-up groups run the
/// service into that sustained regime before the measured groups start.
constexpr int kWarmupGroups = 3;
/// Pre-roll: the first kPreRollPerUser * users arrivals of the stream are
/// applied to the generated instance before it is served, untimed. A
/// re-registration (the generator's default of 2-6 random events) has many
/// more admissible sets than the base instance's conflict-grouped bids, so
/// a service started on the fresh instance would see its catalog grow with
/// every burst. After the pre-roll all but about e^-3 (5%) of the users
/// have been touched by a user mutation of the measured mix, so the served
/// catalog starts near the size the stream holds it at.
constexpr int32_t kPreRollPerUser = 4;
/// Reader poll interval; the achieved polling resolution is reported. Far
/// below the epoch time, and coarse enough that polling does not compete
/// with the solver for a core.
constexpr auto kReaderPoll = std::chrono::milliseconds(1);
/// A run whose submitter ran later than this (p99) behind its schedule is
/// invalid: the offered load was not the stated rate.
constexpr double kMaxLagMs = 20.0;
/// Durable recovery phase: a WAL tail of whole epochs past a checkpoint.
constexpr int32_t kTailEpochs = 8;
constexpr int32_t kTailBatch = 32;
constexpr int kRecoveries = 3;
constexpr int32_t kCheckpointEvery = 16;

// ---- Replay of the service's engine through public functions. ----

struct EngineOptions {
  igepa::core::AdmissibleOptions admissible;
  igepa::core::StructuredDualOptions dual;
  igepa::core::CatalogDeltaOptions delta;
  igepa::core::LpPackingOptions round;
};

// The engine options ArrangementService derives from its ServeOptions.
EngineOptions EngineOptionsOf(const ServeOptions& serve) {
  EngineOptions o;
  o.admissible = serve.admissible;
  o.admissible.num_threads = serve.num_threads;
  o.dual = serve.dual;
  o.dual.num_threads = serve.num_threads;
  o.delta.admissible = serve.admissible;
  o.delta.compact_tombstone_fraction = serve.compact_tombstone_fraction;
  o.delta.compact_min_dead_columns = serve.compact_min_dead_columns;
  o.round.alpha = serve.alpha;
  o.round.num_threads = serve.num_threads;
  o.round.structured = o.dual;
  return o;
}

struct Engine {
  explicit Engine(Instance base, uint64_t seed)
      : instance(std::move(base)), master(seed) {}
  Instance instance;
  igepa::core::AdmissibleCatalog catalog;
  igepa::core::DualWarmStart warm;
  igepa::core::RoundingState rounding;
  igepa::core::FractionalSolution fractional;
  Rng master;
  Arrangement arrangement;
};

struct ReplayCounters {
  int64_t epochs = 0;
  int64_t columns = 0;
  int64_t cold_iterations = 0;
  int64_t warm_iterations = 0;
  int64_t stale_users = 0;
  int64_t columns_rescored = 0;
  int64_t compactions = 0;
};

// The service's cold bootstrap: catalog build, structured dual, full round.
Status Bootstrap(Engine* e, const EngineOptions& o, Tracer* tracer,
                 ReplayCounters* counters) {
  {
    Tracer::Span span(tracer, "core.catalog.build");
    e->catalog = igepa::core::AdmissibleCatalog::Build(e->instance,
                                                        o.admissible);
  }
  {
    Tracer::Span span(tracer, "core.dual.solve");
    IGEPA_ASSIGN_OR_RETURN(e->fractional.lp,
                           igepa::core::SolveBenchmarkLpStructured(
                               e->instance, e->catalog, o.dual, &e->warm));
  }
  e->fractional.structured = true;
  Rng round_rng = e->master.Fork();
  {
    Tracer::Span span(tracer, "core.round.round");
    IGEPA_ASSIGN_OR_RETURN(
        e->arrangement,
        igepa::core::RoundFractional(e->instance, e->catalog, e->fractional,
                                     &round_rng, o.round, nullptr,
                                     &e->rounding));
  }
  counters->columns = e->catalog.num_columns();
  counters->cold_iterations = e->fractional.lp.iterations;
  return e->arrangement.CheckFeasible(e->instance);
}

// One warm tick through its public steps, in the order core::ApplyWarmTick
// runs them, each in its layer's span.
Status StepTick(Engine* e, const InstanceDelta& batch, const EngineOptions& o,
                Tracer* tracer, int64_t epoch, ReplayCounters* counters) {
  Tracer::Span tick(tracer, "core.warm_tick", epoch);
  Rng rng = e->master.Fork();
  IGEPA_RETURN_IF_ERROR(igepa::core::ValidateDelta(
      e->instance.num_events(), e->instance.num_users(), batch));
  const std::vector<UserId> touched =
      igepa::core::WarmTouchedUsers(e->instance, batch);
  std::vector<EventId> dirty;
  {
    // Phase 1 of the delta re-round; phase 2 is RoundFractionalDelta below.
    Tracer::Span span(tracer, "core.round.delta");
    dirty = igepa::core::RetireSamples(e->catalog, touched, &e->rounding);
  }
  const std::vector<EventId> capacity_events =
      igepa::core::TouchedEvents(batch);
  dirty.insert(dirty.end(), capacity_events.begin(), capacity_events.end());
  std::sort(dirty.begin(), dirty.end());
  dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  {
    Tracer::Span span(tracer, "core.instance.apply_delta");
    IGEPA_RETURN_IF_ERROR(igepa::core::ApplyDelta(&e->instance, batch));
  }
  igepa::core::CatalogDeltaResult delta_result;
  {
    Tracer::Span span(tracer, "core.catalog.apply_delta");
    IGEPA_ASSIGN_OR_RETURN(delta_result,
                           e->catalog.ApplyDelta(e->instance, batch, o.delta));
  }
  if (delta_result.compacted) {
    e->rounding.Remap(delta_result.column_remap, e->catalog.ids_revision());
    e->warm.Remap(delta_result.column_remap, e->catalog.ids_revision());
    ++counters->compactions;
  }
  e->warm.stale.assign(static_cast<size_t>(e->instance.num_users()), 0);
  for (UserId u : touched) e->warm.stale[static_cast<size_t>(u)] = 1;
  igepa::core::StructuredDualOptions warm_dual = o.dual;
  warm_dual.warm = &e->warm;
  igepa::core::DualWarmStart warm_next;
  {
    Tracer::Span span(tracer, "core.dual.warm");
    IGEPA_ASSIGN_OR_RETURN(e->fractional.lp,
                           igepa::core::SolveBenchmarkLpStructured(
                               e->instance, e->catalog, warm_dual, &warm_next));
  }
  {
    Tracer::Span span(tracer, "core.round.delta");
    IGEPA_ASSIGN_OR_RETURN(
        e->arrangement,
        igepa::core::RoundFractionalDelta(e->instance, e->catalog,
                                          e->fractional, touched, dirty, &rng,
                                          &e->rounding, o.round));
  }
  IGEPA_RETURN_IF_ERROR(e->arrangement.CheckFeasible(e->instance));
  e->warm = std::move(warm_next);
  ++counters->epochs;
  counters->warm_iterations += e->fractional.lp.iterations;
  counters->stale_users += static_cast<int64_t>(touched.size());
  counters->columns_rescored += delta_result.columns_rescored;
  return Status::OK();
}

// The production tick the service runs.
Status ProductionTick(Engine* e, const InstanceDelta& batch,
                      const EngineOptions& o) {
  Rng rng = e->master.Fork();
  IGEPA_ASSIGN_OR_RETURN(
      igepa::core::WarmTickReport report,
      igepa::core::ApplyWarmTick(&e->instance, &e->catalog, &e->warm,
                                 &e->rounding, &e->fractional, batch, &rng,
                                 o.dual, o.delta, o.round));
  e->arrangement = std::move(report.arrangement);
  return Status::OK();
}

// Splits the accepted deltas (FIFO order) into the epochs' coalesced
// batches, concatenated the way the service coalesces them.
std::vector<InstanceDelta> RebuildBatches(
    const std::vector<InstanceDelta>& accepted,
    const std::vector<igepa::serve::EpochMetrics>& history) {
  std::vector<InstanceDelta> batches;
  size_t next = 0;
  for (const auto& epoch : history) {
    InstanceDelta batch;
    for (int32_t k = 0; k < epoch.deltas_coalesced && next < accepted.size();
         ++k, ++next) {
      const InstanceDelta& d = accepted[next];
      batch.user_updates.insert(batch.user_updates.end(),
                                d.user_updates.begin(), d.user_updates.end());
      batch.event_updates.insert(batch.event_updates.end(),
                                 d.event_updates.begin(),
                                 d.event_updates.end());
      batch.graph_updates.insert(batch.graph_updates.end(),
                                 d.graph_updates.begin(),
                                 d.graph_updates.end());
      batch.interest_updates.insert(batch.interest_updates.end(),
                                    d.interest_updates.begin(),
                                    d.interest_updates.end());
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

// ---- The live run. ----

// What the reader thread saw.
struct ReaderLog {
  std::vector<Sighting> sightings;
  std::vector<double> read_s;
  int64_t reads = 0;
  int64_t null_reads = 0;
  int64_t version_regressions = 0;
  double first_s = 0.0;
  double last_s = 0.0;
};

void ReaderLoop(const ArrangementService* service, int32_t num_users,
                uint64_t seed, const std::atomic<bool>* stop, Tracer* tracer,
                ReaderLog* log) {
  Rng rng(seed);
  int64_t last_version = 0;
  log->first_s = NowSeconds();
  while (!stop->load(std::memory_order_acquire)) {
    const double t0 = NowSeconds();
    {
      Tracer::Span span(tracer, "serve.read", log->reads);
      auto snapshot = service->snapshot();
      const double seen = NowSeconds();
      if (snapshot == nullptr) {
        ++log->null_reads;
      } else {
        const auto user = static_cast<UserId>(
            rng.NextIndex(static_cast<uint64_t>(num_users)));
        volatile size_t assigned = snapshot->GetAssignment(user).size();
        (void)assigned;
        if (snapshot->version() < last_version) ++log->version_regressions;
        if (snapshot->version() > last_version) {
          log->sightings.push_back({snapshot->version(), seen});
          last_version = snapshot->version();
        }
      }
    }
    log->read_s.push_back(NowSeconds() - t0);
    ++log->reads;
    std::this_thread::sleep_for(kReaderPoll);
  }
  log->last_s = NowSeconds();
}

// Everything the submitter thread did, in submit order.
struct SubmitLog {
  std::vector<double> due_s;    // open-loop deltas only
  std::vector<double> lag_s;    // open-loop deltas only
  std::vector<bool> accepted;   // every submit
  std::vector<double> submit_s; // every submit
  std::vector<InstanceDelta> accepted_deltas;
  std::vector<double> burst_s;  // measured bursts only
  std::vector<double> burst_cpu_s;  // process CPU of the measured bursts
  std::vector<double> warmup_s;
  // MetricsHistory() index range of the measured bursts.
  size_t measured_epochs_begin = 0;
  size_t measured_epochs_end = 0;
};

int64_t AppliedDeltas(const ArrangementService& service) {
  int64_t applied = 0;
  for (const auto& epoch : service.MetricsHistory()) {
    applied += epoch.deltas_coalesced;
  }
  return applied;
}

// Waits until every accepted delta has been applied and published.
void WaitDrained(const ArrangementService& service, int64_t accepted) {
  while (AppliedDeltas(service) < accepted) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void SubmitOne(ArrangementService* service, const InstanceDelta& delta,
               Tracer* tracer, SubmitLog* log) {
  const double t0 = NowSeconds();
  Status status = Status::OK();
  {
    Tracer::Span span(tracer, "serve.submit",
                      static_cast<int64_t>(log->accepted.size()));
    status = service->Submit(delta);
  }
  log->submit_s.push_back(NowSeconds() - t0);
  log->accepted.push_back(status.ok());
  if (status.ok()) log->accepted_deltas.push_back(delta);
}

// Open loop at kRate for `open` arrivals, then `warmup` untimed and
// `bursts` measured closed-loop bursts.
void SubmitterLoop(ArrangementService* service,
                   const std::vector<igepa::core::ArrivalEvent>& arrivals,
                   size_t open, int warmup, int bursts, Tracer* tracer,
                   SubmitLog* log) {
  // Due times live on the same steady clock as NowSeconds().
  const double t0 = NowSeconds() + 0.01;
  for (size_t i = 0; i < open; ++i) {
    const double due = t0 + arrivals[i].at_seconds;
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(due))));
    log->due_s.push_back(due);
    log->lag_s.push_back(NowSeconds() - due);
    SubmitOne(service, arrivals[i].delta, tracer, log);
  }
  size_t next = open;
  for (int b = 0; b < warmup + bursts; ++b) {
    WaitDrained(*service, static_cast<int64_t>(log->accepted_deltas.size()));
    if (b == warmup) {
      log->measured_epochs_begin = service->MetricsHistory().size();
    }
    const double start = NowSeconds();
    const double cpu_start = ProcessCpuSeconds();
    for (int32_t k = 0; k < kBurstDeltas; ++k) {
      while (service->PendingDeltas() >= kMaxBatch) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      SubmitOne(service, arrivals[next++].delta, tracer, log);
    }
    WaitDrained(*service, static_cast<int64_t>(log->accepted_deltas.size()));
    (b < warmup ? log->warmup_s : log->burst_s).push_back(NowSeconds() - start);
    if (b >= warmup) {
      log->burst_cpu_s.push_back(ProcessCpuSeconds() - cpu_start);
    }
  }
  log->measured_epochs_end = service->MetricsHistory().size();
}

double MedianOf(const std::vector<igepa::serve::EpochMetrics>& history,
                double (*field)(const igepa::serve::EpochMetrics&)) {
  std::vector<double> values;
  for (const auto& epoch : history) values.push_back(field(epoch));
  return Median(values);
}

}  // namespace

void RunServeDurable(const RunConfig& config, Tracer* tracer,
                     Report* report) {
  constexpr int32_t users = 5000;
  const std::string csv = config.workdir + "/serve.csv";
  const size_t preroll = static_cast<size_t>(kPreRollPerUser) * users;
  const size_t open = static_cast<size_t>(
      std::llround(kRate * kOpenLoopShare * config.seconds));
  const int groups = std::max(
      1, static_cast<int>(std::lround(kBurstGroupsPerSecond * config.seconds)));
  const int bursts = 4 * groups;
  const int warmup = 4 * kWarmupGroups;
  const size_t burst_total =
      static_cast<size_t>(warmup + bursts) * kBurstDeltas;
  // The recovery tail pads to a checkpoint boundary with single-delta
  // epochs (at most kCheckpointEvery) before its kTailEpochs batches.
  const size_t tail_total = kCheckpointEvery + kTailEpochs * kTailBatch;

  // The stream after the pre-roll, re-timed to start at 0.
  std::vector<igepa::core::ArrivalEvent> arrivals;
  {
    igepa::gen::SyntheticConfig synthetic;  // Table I, 200 events
    synthetic.num_users = users;
    Rng rng(MixSeed(config.seed, 1));
    auto instance = igepa::gen::GenerateSynthetic(synthetic, &rng);
    if (!report->Check(instance.ok(), "generate serve instance")) return;
    igepa::gen::ArrivalProcessConfig process;  // default re-register shape
    process.num_arrivals =
        static_cast<int32_t>(preroll + open + burst_total + tail_total);
    process.rate_per_second = kRate;
    process.p_register = 0.60;
    process.p_cancel = 0.15;
    process.p_event_capacity = 0.15;
    process.p_graph_edge = 0.10;
    Rng arrival_rng(MixSeed(config.seed, 2));
    arrivals =
        igepa::gen::GenerateArrivalProcess(*instance, process, &arrival_rng);
    if (!report->Check(arrivals.size() == static_cast<size_t>(
                                              process.num_arrivals),
                       "arrival stream length")) {
      return;
    }
    for (size_t i = 0; i < preroll; ++i) {
      if (!report->Check(
              igepa::core::ApplyDelta(&*instance, arrivals[i].delta).ok(),
              "pre-roll delta")) {
        return;
      }
    }
    const double start_s = arrivals[preroll].at_seconds;
    arrivals.erase(arrivals.begin(),
                   arrivals.begin() + static_cast<long>(preroll));
    for (auto& a : arrivals) a.at_seconds -= start_s;
    if (!report->Check(igepa::io::WriteInstanceCsv(*instance, csv).ok(),
                       "write serve instance")) {
      return;
    }
  }
  ResetPeakRss();

  ServeOptions options;
  options.num_threads = kSolverThreads;
  options.max_batch = kMaxBatch;
  options.seed = MixSeed(config.seed, 3);
  options.checkpoint_every = kCheckpointEvery;
  options.pipeline_depth = 4;

  // ---- Set-up: load + Create (bootstrap solve, v1 publish and the epoch-0
  // checkpoint), several times; keep the last service. ----
  std::unique_ptr<ArrangementService> service;
  std::unique_ptr<Instance> base;  // the served instance before any delta
  std::vector<double> setup_s;
  std::vector<double> load_s;
  std::vector<double> create_s;
  for (double spent = 0.0; KeepSettingUp(setup_s, spent);) {
    service.reset();
    // Create refuses a directory that already holds state.
    if (!options.durable_dir.empty()) {
      std::filesystem::remove_all(options.durable_dir);
    }
    options.durable_dir =
        config.workdir + "/durable-" + std::to_string(setup_s.size());
    Tracer::Span setup_span(tracer, "bench.setup");
    const double t0 = ProcessCpuSeconds();
    igepa::Result<Instance> loaded = Status::Internal("unset");
    {
      Tracer::Span span(tracer, "io.instance.load");
      loaded = igepa::io::ReadInstanceCsv(csv);
    }
    report->ops().Add(loaded.ok());
    if (!report->Check(loaded.ok(), "load serve instance")) return;
    const double t1 = ProcessCpuSeconds();
    base = std::make_unique<Instance>(*loaded);
    const double t2 = ProcessCpuSeconds();
    igepa::Result<std::unique_ptr<ArrangementService>> created =
        Status::Internal("unset");
    {
      Tracer::Span span(tracer, "serve.create");
      created = ArrangementService::Create(std::move(loaded).value(), options);
    }
    const double t3 = ProcessCpuSeconds();
    report->ops().Add(created.ok());
    if (!report->Check(created.ok(), "ArrangementService::Create")) return;
    service = std::move(created).value();
    load_s.push_back(t1 - t0);
    create_s.push_back(t3 - t2);
    setup_s.push_back((t1 - t0) + (t3 - t2));
    spent += setup_s.back();
  }

  // ---- Open loop + bursts, with one reader beside the writes. ----
  std::atomic<bool> stop_reader{false};
  ReaderLog reader;
  SubmitLog submits;
  if (!report->Check(service->Start().ok(), "Start")) return;
  std::thread reader_thread(ReaderLoop, service.get(), users,
                            MixSeed(config.seed, 4), &stop_reader, tracer,
                            &reader);
  std::thread submitter_thread(SubmitterLoop, service.get(),
                               std::cref(arrivals), open, warmup, bursts, tracer,
                               &submits);
  submitter_thread.join();
  const Status stopped = service->Stop();
  stop_reader.store(true, std::memory_order_release);
  reader_thread.join();
  report->ops().AddMany(reader.reads, reader.null_reads);
  report->ops().Add(stopped.ok());
  report->Check(stopped.ok() && service->last_error().ok(),
                "no epoch error: " + stopped.ToString());

  const int64_t rejected = static_cast<int64_t>(
      std::count(submits.accepted.begin(), submits.accepted.end(), false));
  report->ops().AddMany(static_cast<int64_t>(submits.accepted.size()),
                        rejected);
  const igepa::serve::ServiceStats stats = service->Stats();
  report->Check(static_cast<int64_t>(submits.accepted.size()) ==
                    stats.deltas_applied + stats.deltas_rejected,
                "submitted == applied + rejected");
  report->Check(stats.deltas_applied ==
                    static_cast<int64_t>(submits.accepted_deltas.size()),
                "every accepted delta applied");
  report->Check(reader.version_regressions == 0,
                "reader never saw a snapshot version go backwards");
  report->Check(service->snapshot()->arrangement()
                    .CheckFeasible(service->instance())
                    .ok(),
                "final snapshot feasible on instance()");

  // ---- Recovery: pad to a checkpoint boundary, force one, run a fixed WAL
  // tail of whole epochs, "crash", and recover from copies. ----
  std::vector<double> checkpoint_write_s;
  std::vector<double> recover_s;
  double checkpoint_load_s = 0.0;
  int64_t replay_epochs = 0;
  int64_t checkpoint_bytes = 0;
  size_t next_arrival = open + burst_total;
  const auto run_epoch_of = [&](int32_t deltas) {
    for (int32_t k = 0; k < deltas; ++k) {
      const InstanceDelta& d = arrivals[next_arrival++].delta;
      const bool ok = service->Submit(d).ok();
      report->ops().Add(ok);
      submits.accepted.push_back(ok);
      if (ok) submits.accepted_deltas.push_back(d);
    }
    const bool ok = service->RunEpoch().ok();
    report->ops().Add(ok);
    return report->Check(ok, "RunEpoch");
  };
  const auto next_epoch = [&] {
    const auto history = service->MetricsHistory();
    return history.empty() ? int64_t{0} : history.back().epoch + 1;
  };
  while (next_epoch() % kCheckpointEvery != 0) {
    if (!run_epoch_of(1)) return;
  }
  for (int k = 0; k < 3; ++k) {
    const double t0 = NowSeconds();
    Tracer::Span span(tracer, "serve.checkpoint.write");
    report->Check(service->Checkpoint().ok(), "forced Checkpoint");
    checkpoint_write_s.push_back(NowSeconds() - t0);
  }
  const size_t accepted_before_tail = submits.accepted_deltas.size();
  for (int32_t e = 0; e < kTailEpochs; ++e) {
    if (!run_epoch_of(kTailBatch)) return;
  }
  const auto tail_accepted = static_cast<int64_t>(
      submits.accepted_deltas.size() - accepted_before_tail);
  const auto final_snapshot = service->snapshot();
  const ArrangementKey final_key = KeyOf(final_snapshot->arrangement());
  const std::vector<igepa::serve::EpochMetrics> history =
      service->MetricsHistory();
  const double utility = final_snapshot->utility();
  const std::string crashed = options.durable_dir;
  service.reset();  // the "crash": nothing past the WAL tail is kept
  checkpoint_bytes = static_cast<int64_t>(std::filesystem::file_size(
      igepa::serve::Checkpointer::SnapshotPath(crashed)));
  const double wal_bytes_per_delta =
      static_cast<double>(std::filesystem::file_size(
          igepa::serve::Checkpointer::WalPath(crashed))) /
      static_cast<double>(std::max<int64_t>(tail_accepted, 1));
  {
    const std::string probe = config.workdir + "/probe";
    std::filesystem::copy(crashed, probe);
    const double t0 = NowSeconds();
    auto loaded = igepa::serve::Checkpointer::Load(probe);
    checkpoint_load_s = NowSeconds() - t0;
    report->Check(loaded.ok(), "Checkpointer::Load");
    std::vector<igepa::serve::WalRecord> records;
    auto wal = igepa::serve::DeltaWal::Open(
        igepa::serve::Checkpointer::WalPath(probe), base->num_events(),
        base->num_users(), &records);
    report->Check(wal.ok(), "open WAL tail");
    replay_epochs = static_cast<int64_t>(records.size());
    report->Check(replay_epochs == kTailEpochs,
                  "WAL tail holds exactly the tail epochs");
  }
  for (int r = 0; r < kRecoveries; ++r) {
    ServeOptions recover_options = options;
    recover_options.durable_dir =
        config.workdir + "/recover-" + std::to_string(r);
    std::filesystem::copy(crashed, recover_options.durable_dir);
    const double t0 = NowSeconds();
    igepa::Result<std::unique_ptr<ArrangementService>> recovered =
        Status::Internal("unset");
    {
      Tracer::Span span(tracer, "serve.recover");
      recovered = ArrangementService::Recover(recover_options);
    }
    recover_s.push_back(NowSeconds() - t0);
    report->ops().Add(recovered.ok());
    if (!report->Check(recovered.ok(), "Recover")) return;
    const auto snapshot = (*recovered)->snapshot();
    report->Check(snapshot->version() == final_snapshot->version() &&
                      KeyOf(snapshot->arrangement()) == final_key,
                  "recovered snapshot == pre-crash snapshot");
    recovered->reset();
    std::filesystem::remove_all(recover_options.durable_dir);
  }

  // ---- End-to-end numbers. ----
  const std::vector<bool> open_accepted(submits.accepted.begin(),
                                        submits.accepted.begin() +
                                            static_cast<long>(open));
  std::vector<EpochRecord> epochs;
  for (const auto& e : history) {
    epochs.push_back({e.snapshot_version, e.deltas_coalesced});
  }
  std::vector<double> publish_ms = AttributePublishLatency(
      submits.due_s, open_accepted, epochs, reader.sightings);
  for (double& v : publish_ms) v *= 1e3;
  const TailStat publish = ComputeTail(publish_ms);
  std::vector<double> lag_ms = submits.lag_s;
  for (double& v : lag_ms) v *= 1e3;
  const TailStat lag = ComputeTail(lag_ms);
  const double poll_us = reader.reads > 0
                             ? 1e6 * (reader.last_s - reader.first_s) /
                                   static_cast<double>(reader.reads)
                             : 0.0;
  report->Check(lag.tail <= kMaxLagMs,
                "submitter kept its schedule (lag p" +
                    Fmt(lag.tail_percentile) + " " +
                    Fmt(lag.tail) + " ms)");
  // Per-burst drain of each group of four bursts, so every group pays for
  // exactly one checkpoint; solve_cpu_s (process CPU) and the wall drain are
  // medians over the groups.
  const auto group_median = [](const std::vector<double>& bursts) {
    std::vector<double> groups;
    for (size_t b = 0; b + 4 <= bursts.size(); b += 4) {
      groups.push_back(
          (bursts[b] + bursts[b + 1] + bursts[b + 2] + bursts[b + 3]) / 4.0);
    }
    return Median(groups);
  };
  const size_t num_groups = submits.burst_s.size() / 4;
  const double drain_s = group_median(submits.burst_s);
  const double drain_cpu_s = group_median(submits.burst_cpu_s);

  report->Note("service: " + std::to_string(users) + " users x 200 events " +
               "after a " + std::to_string(preroll) + "-delta pre-roll, " +
               std::to_string(history.size()) + " epochs, max_batch " +
               std::to_string(kMaxBatch) +
               ", durable, checkpoint_every 16, pipeline_depth 4");
  report->Note("open loop: " + std::to_string(open) + " deltas at " +
               Fmt(kRate) + "/s; generator lag p50 " +
               Fmt(lag.p50) + " ms, p" +
               Fmt(lag.tail_percentile) + " " +
               Fmt(lag.tail) + " ms; reader polling resolution " +
               Fmt(poll_us) + " us over " +
               std::to_string(reader.reads) + " reads");
  report->Note("publish latency: n=" + std::to_string(publish.count) +
               ", p50 " + Fmt(publish.p50) + " ms, p" +
               Fmt(publish.tail_percentile) + " " +
               Fmt(publish.tail) + " ms" +
               (publish.tail_valid ? "" : " (fewer than 10 beyond p50)"));
  const auto seconds_list = [](const std::vector<double>& values) {
    std::string line;
    for (double v : values) line += " " + Fmt(v);
    return line;
  };
  // Iterations and time of the warm dual in the measured bursts' epochs:
  // separates a change in the work per epoch from a change in host speed.
  const std::vector<igepa::serve::EpochMetrics> measured_epochs(
      history.begin() + static_cast<long>(submits.measured_epochs_begin),
      history.begin() + static_cast<long>(submits.measured_epochs_end));
  report->Note(
      "measured burst epochs: " + std::to_string(measured_epochs.size()) +
      ", warm dual iterations median " +
      Fmt(MedianOf(measured_epochs,
                   [](const auto& e) {
                     return static_cast<double>(e.lp_iterations);
                   })) +
      ", solve stage median " +
      Fmt(1e3 * MedianOf(measured_epochs,
                         [](const auto& e) { return e.solve_seconds; })) +
      " ms");
  report->Note("bursts of " + std::to_string(kBurstDeltas) +
               " deltas closed-loop, s: " + std::to_string(warmup) +
               " warm-up" + seconds_list(submits.warmup_s) + "; " +
               std::to_string(bursts) + " measured" +
               seconds_list(submits.burst_s) + "; their CPU s" +
               seconds_list(submits.burst_cpu_s));
  report->EndToEnd("setup_s", Median(setup_s), "s",
                   "CPU; median of " + std::to_string(setup_s.size()) +
                       " load + Create");
  report->EndToEnd("solve_cpu_s", drain_cpu_s, "s",
                   "median burst drain over " + std::to_string(num_groups) +
                       " groups of 4 bursts");
  report->EndToEnd("solve_wall_s", drain_s, "s",
                   "median burst drain over " + std::to_string(num_groups) +
                       " groups of 4 bursts");
  report->EndToEnd("capacity_deltas_per_s", kBurstDeltas / drain_s, "1/s");
  report->EndToEnd("publish_p50_ms", publish.p50, "ms",
                   "n=" + std::to_string(publish.count));
  report->EndToEnd("publish_p99_ms",
                   publish.tail_percentile >= 99.0
                       ? publish.tail
                       : std::numeric_limits<double>::quiet_NaN(),
                   "ms",
                   "p" + Fmt(publish.tail_percentile) +
                       " is the highest percentile with 10 beyond");
  report->EndToEnd("utility", utility, "util", "final snapshot");
  report->EndToEnd("peak_rss_mb", PeakRssMiB(), "MiB");
  report->EndToEnd("recover_s", Median(recover_s), "s",
                   "median of " + std::to_string(recover_s.size()) +
                       " recoveries of " + std::to_string(kTailEpochs) +
                       " WAL epochs");

  if (!tracer->enabled()) return;
  // ---- Traced replay of the served batch sequence. ----
  const std::vector<InstanceDelta> batches =
      RebuildBatches(submits.accepted_deltas, history);
  const EngineOptions engine_options = EngineOptionsOf(options);
  // The first half of the step replay also runs with a disabled Tracer:
  // the same work as the traced replay's first half, so the two times give
  // the tracing overhead.
  const size_t half = batches.size() / 2;
  double half_s = 0.0;
  const auto replay_steps = [&](Engine* engine, Tracer* t, size_t ticks,
                                ReplayCounters* c) {
    const double t0 = NowSeconds();
    IGEPA_RETURN_IF_ERROR(Bootstrap(engine, engine_options, t, c));
    for (size_t k = 0; k < ticks; ++k) {
      if (k == half) half_s = NowSeconds() - t0;
      IGEPA_RETURN_IF_ERROR(StepTick(engine, batches[k], engine_options, t,
                                     static_cast<int64_t>(k), c));
    }
    return Status::OK();
  };
  double untraced_half_s = 0.0;
  {
    Engine engine(*base, options.seed);
    ReplayCounters unused;
    Tracer untraced(false);
    const double t0 = NowSeconds();
    const Status replayed = replay_steps(&engine, &untraced, half, &unused);
    untraced_half_s = NowSeconds() - t0;
    if (!report->Check(replayed.ok(),
                       "untraced step replay " + replayed.ToString())) {
      return;
    }
  }
  ReplayCounters counters;
  Engine stepped(*base, options.seed);
  double stepped_s = 0.0;
  {
    const double t0 = NowSeconds();
    Tracer::Span root(tracer, "bench.replay");
    const Status replayed =
        replay_steps(&stepped, tracer, batches.size(), &counters);
    stepped_s = NowSeconds() - t0;
    if (!report->Check(replayed.ok(),
                       "traced step replay " + replayed.ToString())) {
      return;
    }
  }
  Engine production(*base, options.seed);
  {
    ReplayCounters unused;
    Tracer untraced(false);
    bool ok = Bootstrap(&production, engine_options, &untraced, &unused).ok();
    for (size_t k = 0; ok && k < batches.size(); ++k) {
      ok = ProductionTick(&production, batches[k], engine_options).ok();
    }
    report->Check(ok, "ApplyWarmTick replay");
  }
  report->Check(KeyOf(stepped.arrangement) == KeyOf(production.arrangement) &&
                    stepped.fractional.lp.objective ==
                        production.fractional.lp.objective,
                "step replay bit-identical to ApplyWarmTick");
  report->Check(KeyOf(stepped.arrangement) == final_key &&
                    stepped.fractional.lp.objective ==
                        final_snapshot->lp_objective(),
                "step replay bit-identical to the service's final snapshot");

  const double n_epochs =
      static_cast<double>(std::max<int64_t>(counters.epochs, 1));
  ReportLayerTimes(*tracer, stepped_s,
                   {{"core.catalog.build", "core.catalog.build_s"},
                    {"core.dual.solve", "core.dual.solve_s"},
                    {"core.round.round", "core.round.round_s"}},
                   1.0, report);
  ReportLayerTimes(*tracer, stepped_s,
                   {{"core.instance.apply_delta", "core.instance.apply_delta_s"},
                    {"core.catalog.apply_delta", "core.catalog.apply_delta_s"},
                    {"core.dual.warm", "core.dual.warm_s"},
                    {"core.round.delta", "core.round.delta_s"}},
                   n_epochs, report);
  std::vector<double> submit_us = submits.submit_s;
  for (double& v : submit_us) v *= 1e6;
  std::vector<double> read_us = reader.read_s;
  for (double& v : read_us) v *= 1e6;
  const TailStat submit_tail = ComputeTail(submit_us);
  const TailStat read_tail = ComputeTail(read_us);

  report->Layer("io.instance.load_s", Median(load_s), "s");
  report->Layer("io.instance.bytes",
                static_cast<double>(std::filesystem::file_size(csv)), "B");
  report->Layer("serve.bootstrap_s", Median(create_s), "s");
  report->Layer("core.catalog.columns", static_cast<double>(counters.columns),
                "count");
  report->Layer("core.dual.iterations",
                static_cast<double>(counters.cold_iterations), "count");
  report->Layer("core.catalog.columns_rescored",
                static_cast<double>(counters.columns_rescored), "count");
  report->Layer("core.catalog.compactions",
                static_cast<double>(counters.compactions), "count");
  report->Layer("core.dual.warm_iterations",
                static_cast<double>(counters.warm_iterations) / n_epochs,
                "count");
  report->Layer("core.dual.stale_users",
                static_cast<double>(counters.stale_users) / n_epochs, "count");
  double tick_total = 0.0;
  for (const auto& e : tracer->events()) {
    if (e.name == "core.warm_tick") tick_total += e.end_s - e.start_s;
  }
  report->Layer("core.warm_tick.total_s", tick_total / n_epochs, "s");
  report->Layer("serve.submit_us.p50", submit_tail.p50, "us");
  report->Layer("serve.submit_us.p99", submit_tail.tail, "us");
  report->Layer("serve.read_us.p50", read_tail.p50, "us");
  report->Layer("serve.read_us.p99", read_tail.tail, "us");
  report->Layer("serve.queue_delay_ms",
                1e3 * MedianOf(history, [](const auto& e) {
                  return e.max_queue_delay_seconds;
                }),
                "ms");
  report->Layer("serve.epoch.batch", MedianOf(history, [](const auto& e) {
                  return static_cast<double>(e.deltas_coalesced);
                }),
                "count");
  report->Layer("serve.epoch.ingest_ms", 1e3 * MedianOf(history, [](const auto& e) {
                  return e.ingest_seconds;
                }),
                "ms");
  report->Layer("serve.epoch.solve_ms", 1e3 * MedianOf(history, [](const auto& e) {
                  return e.solve_seconds;
                }),
                "ms");
  report->Layer("serve.epoch.commit_ms", 1e3 * MedianOf(history, [](const auto& e) {
                  return e.commit_seconds;
                }),
                "ms");
  report->Layer("serve.pipeline.ingest_stalls",
                static_cast<double>(stats.ingest_stalls), "count");
  report->Layer("serve.pipeline.engine_queue_peak",
                static_cast<double>(stats.engine_queue_peak), "count");
  report->Layer("serve.wal.bytes_per_delta", wal_bytes_per_delta, "B");
  report->Layer("serve.checkpoint.write_ms",
                1e3 * Median(checkpoint_write_s), "ms");
  report->Layer("serve.checkpoint.bytes",
                static_cast<double>(checkpoint_bytes), "B");
  report->Layer("serve.checkpoint.load_ms", 1e3 * checkpoint_load_s, "ms");
  report->Layer("serve.recover.replay_epochs",
                static_cast<double>(replay_epochs), "count");
  report->Layer("bench.gen.lag_p99_ms", lag.tail, "ms");
  report->Layer("bench.reader.poll_us", poll_us, "us");
  report->Layer("bench.trace.overhead_frac", half_s / untraced_half_s - 1.0,
                "frac");
  report->Layer("bench.trace.coverage_frac", tracer->Coverage("bench.replay"),
                "frac");
}

}  // namespace perfbench
