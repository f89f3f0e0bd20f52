#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder for the traced benchmark run. The benchmark wraps
// each call into a library layer in a Span named "<layer>.<step>" (for
// example "core.dual.warm"); spans nest per thread, spans of one solve or one
// delta share an id, and everything is written once at exit as Chrome
// trace-event JSON (chrome://tracing, Perfetto). When disabled a Span does
// nothing, not even read the clock.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Event {
    std::string name;
    double start_s = 0.0;
    double end_s = 0.0;
    int32_t parent = -1;  // index into events(), -1 for a root
    int64_t id = -1;
    int32_t tid = 0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// RAII span on the calling thread. `id` < 0 inherits the enclosing
  /// span's id.
  class Span {
   public:
    Span(Tracer* tracer, const char* name, int64_t id = -1);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    int32_t index_ = -1;
  };

  /// A copy of every finished span (open spans have end_s == 0).
  std::vector<Event> events() const;

  /// Self time (duration minus the part covered by child spans) summed per
  /// span name.
  std::map<std::string, double> SelfSecondsByName() const;

  /// Share of the wall time of every span named `root` that library-layer
  /// spans below it account for: sum of the self times of its non-"bench."
  /// descendants over the sum of the roots' durations (0 without roots).
  double Coverage(const std::string& root) const;

  /// Writes the spans as Chrome trace-event JSON ("X" events, microseconds,
  /// id and parent in args). Returns false on an I/O error.
  bool WriteChromeJson(const std::string& path) const;

 private:
  int32_t Open(const char* name, int64_t id);
  void Close(int32_t index);

  const bool enabled_;
  mutable std::mutex mutex_;
  std::vector<Event> events_;  // guarded by mutex_
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
