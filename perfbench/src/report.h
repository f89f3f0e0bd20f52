#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

// Measurement and accounting pieces of the igepa benchmark that do not touch
// the library under test: the percentile rule, delta -> epoch publish
// attribution, failed-op accounting, resident-set probes and the result
// record every workload fills in.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock (arbitrary epoch).
double NowSeconds();
/// CPU seconds consumed by the whole process so far.
double ProcessCpuSeconds();

/// Resets the kernel's resident-set high-water mark for this process
/// (/proc/self/clear_refs), so PeakRssMiB() reports what the workload itself
/// used, not input generation. Returns false when the kernel refuses.
bool ResetPeakRss();
/// VmHWM of this process in MiB (0 when /proc is unreadable).
double PeakRssMiB();

/// Deterministic 64-bit mix of (seed, stream) — every generated input of a
/// workload draws from its own stream of the workload seed.
uint64_t MixSeed(uint64_t seed, uint64_t stream);

/// A number for the human-readable block (six significant digits).
std::string Fmt(double value);

/// Median of a sample (0 for an empty one).
double Median(std::vector<double> samples);

/// A timing reported by the percentile rule: the median, plus the highest
/// percentile of the ladder {50, 90, 99, 99.9} that has at least kMinBeyond
/// samples beyond it, with the sample count. Percentiles are nearest-rank,
/// so a +inf sample (a rejected request) stays +inf instead of poisoning
/// an interpolation. `tail_valid` is false when not even the median has
/// kMinBeyond samples beyond it; `tail` then repeats the median.
struct TailStat {
  static constexpr int64_t kMinBeyond = 10;
  int64_t count = 0;
  double p50 = 0.0;
  double tail_percentile = 50.0;
  double tail = 0.0;
  bool tail_valid = false;
};
/// Applies the rule above.
TailStat ComputeTail(std::vector<double> samples);
/// Samples that lie strictly beyond the nearest-rank q-quantile of n
/// samples: n - ceil(q * n).
int64_t SamplesBeyond(int64_t n, double q);

/// One epoch as MetricsHistory() reports it, reduced to what attribution
/// needs.
struct EpochRecord {
  int64_t version = 0;
  int32_t coalesced = 0;
};
/// The reader's first sight of a snapshot version (seconds on NowSeconds()).
struct Sighting {
  int64_t version = 0;
  double seen_s = 0.0;
};
/// Publish latency of every submitted delta, in submit order: from its due
/// time to the reader's first sight of a snapshot whose version is at least
/// that of the epoch that applied it. Accepted deltas are matched to epochs
/// in FIFO order by the epochs' coalesced counts; a rejected delta, or one
/// whose epoch the reader never saw, gets +inf. `sightings` must be
/// ascending in both version and time.
std::vector<double> AttributePublishLatency(
    const std::vector<double>& due_s, const std::vector<bool>& accepted,
    const std::vector<EpochRecord>& epochs,
    const std::vector<Sighting>& sightings);

/// Counts operations attempted against the library and the ones that
/// failed: rejected submits, epoch errors, solve errors and null reads.
struct OpTally {
  int64_t attempted = 0;
  int64_t failed = 0;
  void Add(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
  void AddMany(int64_t n_attempted, int64_t n_failed) {
    attempted += n_attempted;
    failed += n_failed;
  }
  /// failed / attempted; 0 when nothing was attempted.
  double FailedFraction() const;
};

/// What one run reports. Metric values are printed with full precision.
class Report {
 public:
  /// An end-to-end metric (printed with --trace 0).
  void EndToEnd(const std::string& name, double value, const std::string& unit,
                const std::string& note = "");
  /// A metric of one layer (printed with --trace 1).
  void Layer(const std::string& name, double value, const std::string& unit);
  /// A free-form line for the human-readable block.
  void Note(const std::string& line);
  /// Records a failed output check; any failure makes the run incorrect.
  void Fail(const std::string& what);
  bool Check(bool ok, const std::string& what) {
    if (!ok) Fail(what);
    return ok;
  }

  OpTally& ops() { return ops_; }
  bool correct() const { return failures_.empty(); }

  /// Prints the human-readable block, then one JSON line carrying
  /// correctness, the op tally and every metric by kind
  /// ("end_to_end" / "per_layer"); perfbench/run.py selects the kind the
  /// run asked for and checks it against BENCHMARK.json.
  void Print() const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
    std::string note;
  };
  std::map<std::string, Metric> e2e_;
  std::map<std::string, Metric> layers_;
  std::vector<std::string> notes_;
  std::vector<std::string> failures_;
  OpTally ops_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
