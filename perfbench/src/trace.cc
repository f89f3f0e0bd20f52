#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "report.h"

namespace perfbench {
namespace {

// Open spans of the calling thread, innermost last. One Tracer exists per
// process, so a plain thread_local stack is enough.
thread_local std::vector<int32_t> t_open_spans;

int32_t ThreadNumber() {
  static std::atomic<int32_t> next{0};
  thread_local const int32_t number = next.fetch_add(1);
  return number;
}

}  // namespace

Tracer::Span::Span(Tracer* tracer, const char* name, int64_t id)
    : tracer_(tracer) {
  if (tracer_->enabled_) index_ = tracer_->Open(name, id);
}

Tracer::Span::~Span() {
  if (index_ >= 0) tracer_->Close(index_);
}

int32_t Tracer::Open(const char* name, int64_t id) {
  const int32_t parent = t_open_spans.empty() ? -1 : t_open_spans.back();
  Event event;
  event.name = name;
  event.parent = parent;
  event.tid = ThreadNumber();
  int32_t index = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    event.id = id >= 0 || parent < 0 ? id : events_[parent].id;
    index = static_cast<int32_t>(events_.size());
    events_.push_back(std::move(event));
  }
  t_open_spans.push_back(index);
  // Read the clock last so the bookkeeping above is not inside the span.
  const double now = NowSeconds();
  std::lock_guard<std::mutex> lock(mutex_);
  events_[index].start_s = now;
  return index;
}

void Tracer::Close(int32_t index) {
  const double now = NowSeconds();
  t_open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mutex_);
  events_[index].end_s = now;
}

std::vector<Tracer::Event> Tracer::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return events_;
}

namespace {

// Self time of every span: its duration minus its children's durations.
std::vector<double> SelfTimes(const std::vector<Tracer::Event>& events) {
  std::vector<double> self(events.size(), 0.0);
  for (size_t i = 0; i < events.size(); ++i) {
    self[i] += events[i].end_s - events[i].start_s;
    if (events[i].parent >= 0) {
      self[events[i].parent] -= events[i].end_s - events[i].start_s;
    }
  }
  return self;
}

}  // namespace

std::map<std::string, double> Tracer::SelfSecondsByName() const {
  const std::vector<Event> evs = events();
  const std::vector<double> self = SelfTimes(evs);
  std::map<std::string, double> by_name;
  for (size_t i = 0; i < evs.size(); ++i) by_name[evs[i].name] += self[i];
  return by_name;
}

double Tracer::Coverage(const std::string& root) const {
  const std::vector<Event> evs = events();
  const std::vector<double> self = SelfTimes(evs);
  // Root ancestor named `root` of every span (-1 when none); parents always
  // precede their children, so one forward pass resolves it.
  std::vector<int32_t> under(evs.size(), -1);
  double root_wall = 0.0;
  double covered = 0.0;
  for (size_t i = 0; i < evs.size(); ++i) {
    if (evs[i].name == root) {
      under[i] = static_cast<int32_t>(i);
      root_wall += evs[i].end_s - evs[i].start_s;
    } else if (evs[i].parent >= 0) {
      under[i] = under[evs[i].parent];
    }
    if (under[i] >= 0 && evs[i].name.rfind("bench.", 0) != 0) {
      covered += self[i];
    }
  }
  return root_wall > 0.0 ? covered / root_wall : 0.0;
}

bool Tracer::WriteChromeJson(const std::string& path) const {
  const std::vector<Event> evs = events();
  double origin = evs.empty() ? 0.0 : evs.front().start_s;
  for (const Event& e : evs) origin = std::min(origin, e.start_s);
  std::ofstream out(path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (size_t i = 0; i < evs.size(); ++i) {
    const Event& e = evs[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                  "\"args\": {\"span\": %zu, \"parent\": %d, \"id\": %lld}}%s\n",
                  e.name.c_str(), e.name.substr(0, e.name.find('.')).c_str(),
                  (e.start_s - origin) * 1e6, (e.end_s - e.start_s) * 1e6,
                  e.tid, i, e.parent, static_cast<long long>(e.id),
                  i + 1 < evs.size() ? "," : "");
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
