#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "core/arrangement.h"

#include "report.h"
#include "trace.h"

namespace perfbench {

/// One benchmark invocation.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  /// Measured window; the fixed-size phases around it (set-up, recovery,
  /// the traced replays) come on top.
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for generated instances, spill files and durable
  /// state (created and removed by the caller).
  std::string workdir;
};

/// An arrangement's pairs in canonical order, for exact comparisons.
using ArrangementKey = std::vector<std::pair<int32_t, int32_t>>;
inline ArrangementKey KeyOf(const igepa::core::Arrangement& arrangement) {
  ArrangementKey key(arrangement.pairs().begin(), arrangement.pairs().end());
  std::sort(key.begin(), key.end());
  return key;
}

/// Set-up runs at least kMinSetups times and, while it has spent less than
/// kSetupSeconds of CPU time, up to kMaxSetups times; setup_s is the
/// median. Cheap
/// set-ups thus get enough samples for a steady median.
inline constexpr int kMinSetups = 3;
inline constexpr int kMaxSetups = 25;
inline constexpr double kSetupSeconds = 1.5;
inline bool KeepSettingUp(const std::vector<double>& done, double spent) {
  const auto n = static_cast<int>(done.size());
  return n < kMinSetups || (n < kMaxSetups && spent < kSetupSeconds);
}

/// Solver threads of the batch solvers and of the service; the serve
/// workload adds one submitter and one reader thread. The measured runs use
/// one solver thread: on hosts whose cores are shared with other tenants,
/// wall times of runs that keep every core busy vary by up to 2x between
/// runs, while one busy thread stays within a few percent. The traced city
/// run adds a solve at kParallelThreads for the thread curve.
inline constexpr int32_t kSolverThreads = 1;
inline constexpr int32_t kParallelThreads = 4;

/// Reports, for each (span name, metric name) pair, the span's summed self
/// time divided by `per` as `<metric>` (seconds; printed for people) and
/// its share of the traced phase's wall time `phase_s` as
/// `<span name>_frac` (the row BENCHMARK.json tracks: a share is 0, not a
/// time, on workloads that bypass the layer).
inline void ReportLayerTimes(
    const Tracer& tracer, double phase_s,
    std::initializer_list<std::pair<const char*, const char*>> spans,
    double per, Report* report) {
  const auto self = tracer.SelfSecondsByName();
  for (const auto& [span, metric] : spans) {
    const auto it = self.find(span);
    const double seconds = it == self.end() ? 0.0 : it->second;
    report->Layer(metric, seconds / per, "s");
    report->Layer(std::string(span) + "_frac",
                  phase_s > 0.0 ? seconds / phase_s : 0.0, "frac");
  }
}

/// Algorithm 1 (default LpPacking, kAuto tier) over the paper's instance
/// set: simulated Meetup SF, the Table-I default, the Fig. 1(b) 10k point
/// and organizer-scale instances that the dense simplex solves.
void RunPaperBatch(const RunConfig& config, Tracer* tracer, Report* report);

/// ShardedSolve on a 100k-user binary instance under a catalog residency
/// budget that keeps about a quarter of the shard catalogs resident.
void RunCityBudget(const RunConfig& config, Tracer* tracer, Report* report);

/// The durable, pipelined ArrangementService on 5k users under an open-loop
/// Poisson delta stream, then a closed-loop burst phase and a crash-recovery
/// phase.
void RunServeDurable(const RunConfig& config, Tracer* tracer, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
