#include "report.h"

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
  out.flush();
  return static_cast<bool>(out);
}

double PeakRssMiB() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

uint64_t MixSeed(uint64_t seed, uint64_t stream) {
  // SplitMix64 finalizer over the pair.
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

std::string Fmt(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

int64_t SamplesBeyond(int64_t n, double q) {
  const auto rank = static_cast<int64_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return n - std::max<int64_t>(rank, 1);
}

namespace {

double NearestRank(const std::vector<double>& sorted, double q) {
  const auto n = static_cast<int64_t>(sorted.size());
  const int64_t rank = n - SamplesBeyond(n, q);
  return sorted[static_cast<size_t>(rank - 1)];
}

}  // namespace

TailStat ComputeTail(std::vector<double> samples) {
  TailStat stat;
  stat.count = static_cast<int64_t>(samples.size());
  if (samples.empty()) return stat;
  std::sort(samples.begin(), samples.end());
  stat.p50 = NearestRank(samples, 0.5);
  stat.tail = stat.p50;
  for (double q : {0.5, 0.9, 0.99, 0.999}) {
    if (SamplesBeyond(stat.count, q) < TailStat::kMinBeyond) break;
    stat.tail_percentile = 100.0 * q;
    stat.tail = NearestRank(samples, q);
    stat.tail_valid = true;
  }
  return stat;
}

std::vector<double> AttributePublishLatency(
    const std::vector<double>& due_s, const std::vector<bool>& accepted,
    const std::vector<EpochRecord>& epochs,
    const std::vector<Sighting>& sightings) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> latency(due_s.size(), kInf);
  size_t epoch = 0;
  int32_t used_in_epoch = 0;
  size_t sight = 0;
  for (size_t i = 0; i < due_s.size(); ++i) {
    if (!accepted[i]) continue;
    while (epoch < epochs.size() && used_in_epoch >= epochs[epoch].coalesced) {
      ++epoch;
      used_in_epoch = 0;
    }
    if (epoch == epochs.size()) continue;  // never applied
    ++used_in_epoch;
    // Versions only grow along the FIFO order, so the sighting cursor only
    // moves forward.
    while (sight < sightings.size() &&
           sightings[sight].version < epochs[epoch].version) {
      ++sight;
    }
    if (sight < sightings.size()) {
      latency[i] = sightings[sight].seen_s - due_s[i];
    }
  }
  return latency;
}

double OpTally::FailedFraction() const {
  return attempted == 0 ? 0.0
                        : static_cast<double>(failed) /
                              static_cast<double>(attempted);
}

void Report::EndToEnd(const std::string& name, double value,
                      const std::string& unit, const std::string& note) {
  e2e_[name] = Metric{value, unit, note};
}

void Report::Layer(const std::string& name, double value,
                   const std::string& unit) {
  layers_[name] = Metric{value, unit, ""};
}

void Report::Note(const std::string& line) { notes_.push_back(line); }

void Report::Fail(const std::string& what) {
  failures_.push_back(what);
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

namespace {

// JSON has no infinity; a metric that is +inf (every request rejected) is
// printed as a huge finite number so it still compares as "worse".
std::string JsonNumber(double v) {
  if (std::isnan(v)) v = std::numeric_limits<double>::max();
  if (std::isinf(v)) v = v > 0 ? std::numeric_limits<double>::max()
                               : std::numeric_limits<double>::lowest();
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

void Report::Print() const {
  for (const auto& line : notes_) std::printf("%s\n", line.c_str());
  // Every workload prints the same end-to-end rows, the solve time both as
  // CPU and as wall time; a row the workload has no counterpart for reads
  // n/a.
  std::printf("end-to-end metrics:\n");
  for (const char* name :
       {"setup_s", "solve_cpu_s", "solve_wall_s", "peak_rss_mb", "utility",
        "publish_p50_ms", "publish_p99_ms", "capacity_deltas_per_s",
        "recover_s"}) {
    const auto it = e2e_.find(name);
    if (it == e2e_.end()) {
      std::printf("  %-24s %14s\n", name, "n/a");
    } else {
      std::printf("  %-24s %14.6g %-6s %s\n", name, it->second.value,
                  it->second.unit.c_str(), it->second.note.c_str());
    }
  }
  std::printf("  %-24s %14.6g %-6s %lld failed of %lld attempted ops\n",
              "failed_frac", ops_.FailedFraction(), "frac",
              static_cast<long long>(ops_.failed),
              static_cast<long long>(ops_.attempted));
  if (!layers_.empty()) {
    std::printf("per-layer metrics:\n");
    for (const auto& [name, m] : layers_) {
      std::printf("  %-36s %14.6g %s\n", name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  for (const auto& f : failures_) std::printf("CHECK FAILED: %s\n", f.c_str());

  const auto metrics_json = [](const std::map<std::string, Metric>& ms) {
    std::string out = "{";
    bool first = true;
    for (const auto& [name, m] : ms) {
      if (!first) out += ", ";
      first = false;
      out += JsonString(name) + ": {\"value\": " + JsonNumber(m.value) +
             ", \"unit\": " + JsonString(m.unit) + "}";
    }
    return out + "}";
  };
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"end_to_end\": %s, \"per_layer\": %s}\n",
      correct() ? "true" : "false", static_cast<long long>(ops_.attempted),
      static_cast<long long>(ops_.failed), metrics_json(e2e_).c_str(),
      metrics_json(layers_).c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
