#include "io/binary_instance.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <fstream>
#include <limits>
#include <optional>
#include <utility>

#include "conflict/conflict.h"
#include "core/utility_kernel.h"
#include "graph/interaction_model.h"
#include "interest/interest.h"
#include "io/instance_io.h"
#include "util/string_util.h"

namespace igepa {
namespace io {

using core::EventId;
using core::UserId;

namespace {

constexpr SectionFormat kFormat{"igepabin", 4, "igepa-bin,4"};
/// Sanity bound on the kernel-id length: ids are short strings, so anything
/// larger is a corrupt length, not a real kernel.
constexpr uint64_t kMaxKernelIdBytes = 4096;
/// Counts above this cannot describe a file that fits any disk; refusing
/// them first keeps every size product below in range.
constexpr uint64_t kMaxCount = uint64_t{1} << 40;

/// The instance sections, in file order (offsets from the first one).
enum InstanceSection : int32_t {
  kMeta,       // f64 β, kernel id; counts = {|V|, |U|, bids, conflicts}
  kEventCap,   // i32[|V|]
  kUserCap,    // i32[|U|]
  kBidOff,     // i64[|U| + 1]
  kBidPool,    // i32[bids]
  kInterest,   // f64[bids], or f64[|V|·|U|] event-major when dense
  kDegree,     // f64[|U|]
  kConflicts,  // i32[2·conflicts], (a, b) pairs ascending
};

/// The meta section's counts: {|V|, |U|, bids, conflicts}.
using Counts = std::array<uint64_t, kSectionCounts>;

std::array<uint64_t, kInstanceSections> SectionBytes(const Counts& counts,
                                                     uint64_t meta_bytes,
                                                     bool dense_interest) {
  const auto [nv, nu, nb, nc] = counts;
  return {meta_bytes, nv * 4, nu * 4, (nu + 1) * 8, nb * 4,
          (dense_interest ? nv * nu : nb) * 8, nu * 8, nc * 8};
}

bool InUnit(double x) { return x >= 0.0 && x <= 1.0; }

}  // namespace

// ---- BinaryInstanceWriter ---------------------------------------------------

struct BinaryInstanceWriter::Impl {
  std::optional<SectionFileWriter> owned;  // Create()'d writers own the file
  BinaryInstanceHeader header;
  bool dense_interest = false;
  std::array<SectionSink, kInstanceSections> sinks;
  int64_t events_added = 0;
  int64_t users_added = 0;
  int64_t bids_added = 0;
  int64_t conflicts_added = 0;
  EventId last_conflict_a = -1;
  EventId last_conflict_b = -1;
  bool finished = false;

  SectionSink& sink(InstanceSection s) {
    return sinks[static_cast<size_t>(s)];
  }

  /// The first IO failure; Add calls return it so a caller that only checks
  /// Finish() still sees the original error.
  Status Deferred() const {
    for (const SectionSink& s : sinks) {
      if (!s.status().ok()) return s.status();
    }
    return Status::OK();
  }
};

BinaryInstanceWriter::BinaryInstanceWriter(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
BinaryInstanceWriter::BinaryInstanceWriter(BinaryInstanceWriter&&) noexcept =
    default;
BinaryInstanceWriter& BinaryInstanceWriter::operator=(
    BinaryInstanceWriter&&) noexcept = default;
BinaryInstanceWriter::~BinaryInstanceWriter() = default;

Result<BinaryInstanceWriter> BinaryInstanceWriter::Begin(
    std::unique_ptr<Impl> impl, SectionFileWriter* file) {
  const BinaryInstanceHeader& h = impl->header;
  if (h.num_events < 0 || h.num_users < 0 || h.num_bids < 0 ||
      h.num_conflicts < 0) {
    return Status::InvalidArgument("binary instance counts must be >= 0");
  }
  if (!InUnit(h.beta)) return Status::InvalidArgument("beta must be in [0, 1]");
  if (h.kernel_id.empty() || h.kernel_id.size() > kMaxKernelIdBytes) {
    return Status::InvalidArgument("kernel id must be non-empty and short");
  }
  const Counts counts = {static_cast<uint64_t>(h.num_events),
                         static_cast<uint64_t>(h.num_users),
                         static_cast<uint64_t>(h.num_bids),
                         static_cast<uint64_t>(h.num_conflicts)};
  const auto bytes =
      SectionBytes(counts, 8 + h.kernel_id.size(), impl->dense_interest);
  for (int32_t s = 0; s < kInstanceSections; ++s) {
    IGEPA_ASSIGN_OR_RETURN(
        impl->sinks[static_cast<size_t>(s)],
        file->Reserve(bytes[static_cast<size_t>(s)],
                      s == kMeta ? counts : Counts{}));
  }
  SectionSink& meta = impl->sink(kMeta);
  meta.WriteValue(h.beta);
  meta.Write(h.kernel_id.data(), h.kernel_id.size());
  IGEPA_RETURN_IF_ERROR(meta.Finish());
  return BinaryInstanceWriter(std::move(impl));
}

Result<BinaryInstanceWriter> BinaryInstanceWriter::Create(
    const std::string& path, const BinaryInstanceHeader& header) {
  auto impl = std::make_unique<Impl>();
  impl->header = header;
  IGEPA_ASSIGN_OR_RETURN(impl->owned, SectionFileWriter::Create(path, kFormat));
  SectionFileWriter* file = &*impl->owned;
  return Begin(std::move(impl), file);
}

Status BinaryInstanceWriter::AddEvent(int32_t capacity) {
  Impl* w = impl_.get();
  IGEPA_RETURN_IF_ERROR(w->Deferred());
  if (w->events_added >= w->header.num_events) {
    return Status::InvalidArgument("more events than the header declares");
  }
  if (capacity < 0) return Status::InvalidArgument("event capacity < 0");
  w->sink(kEventCap).WriteValue(capacity);
  ++w->events_added;
  return w->Deferred();
}

Status BinaryInstanceWriter::AddUser(int32_t capacity,
                                     std::span<const EventId> bids,
                                     std::span<const double> interest,
                                     double degree) {
  Impl* w = impl_.get();
  IGEPA_RETURN_IF_ERROR(w->Deferred());
  if (w->users_added >= w->header.num_users) {
    return Status::InvalidArgument("more users than the header declares");
  }
  if (capacity < 0) return Status::InvalidArgument("user capacity < 0");
  if (!w->dense_interest && bids.size() != interest.size()) {
    return Status::InvalidArgument("one interest value per bid required");
  }
  if (w->bids_added + static_cast<int64_t>(bids.size()) >
      w->header.num_bids) {
    return Status::InvalidArgument("more bids than the header declares");
  }
  EventId prev = -1;
  for (size_t i = 0; i < bids.size(); ++i) {
    const EventId v = bids[i];
    if (v <= prev || v >= w->header.num_events) {
      return Status::InvalidArgument(
          "user bids must be strictly ascending event ids in range");
    }
    if (!w->dense_interest && !InUnit(interest[i])) {
      return Status::InvalidArgument("interest values must be in [0, 1]");
    }
    prev = v;
  }
  if (!InUnit(degree)) {
    return Status::InvalidArgument("degree must be in [0, 1]");
  }
  w->sink(kUserCap).WriteValue(capacity);
  w->sink(kBidOff).WriteValue(w->bids_added);
  w->sink(kBidPool).Write(bids.data(), bids.size() * sizeof(EventId));
  if (!w->dense_interest) {
    w->sink(kInterest).Write(interest.data(), interest.size() * sizeof(double));
  }
  w->sink(kDegree).WriteValue(degree);
  w->bids_added += static_cast<int64_t>(bids.size());
  ++w->users_added;
  return w->Deferred();
}

Status BinaryInstanceWriter::AddConflict(EventId a, EventId b) {
  Impl* w = impl_.get();
  IGEPA_RETURN_IF_ERROR(w->Deferred());
  if (w->conflicts_added >= w->header.num_conflicts) {
    return Status::InvalidArgument("more conflicts than the header declares");
  }
  if (a < 0 || b >= w->header.num_events || a >= b) {
    return Status::InvalidArgument("conflict pair must satisfy 0 <= a < b < |V|");
  }
  if (a < w->last_conflict_a ||
      (a == w->last_conflict_a && b <= w->last_conflict_b)) {
    return Status::InvalidArgument(
        "conflict pairs must be strictly ascending lexicographically");
  }
  const EventId pair[2] = {a, b};
  w->sink(kConflicts).Write(pair, sizeof(pair));
  w->last_conflict_a = a;
  w->last_conflict_b = b;
  ++w->conflicts_added;
  return w->Deferred();
}

Status BinaryInstanceWriter::Finish() {
  Impl* w = impl_.get();
  if (w->finished) return Status::FailedPrecondition("Finish called twice");
  w->finished = true;
  IGEPA_RETURN_IF_ERROR(w->Deferred());
  if (w->events_added != w->header.num_events ||
      w->users_added != w->header.num_users ||
      w->bids_added != w->header.num_bids ||
      w->conflicts_added != w->header.num_conflicts) {
    return Status::InvalidArgument(
        "record counts do not match the declared header counts");
  }
  // Close the bid-offset section: boff[num_users] = num_bids.
  w->sink(kBidOff).WriteValue(w->bids_added);
  for (int32_t s = kEventCap; s < kInstanceSections; ++s) {
    IGEPA_RETURN_IF_ERROR(w->sinks[static_cast<size_t>(s)].Finish());
  }
  if (!w->owned) return Status::OK();
  IGEPA_RETURN_IF_ERROR(w->owned->Seal());
  return w->owned->Close(/*sync=*/false);
}

Status AppendInstanceSections(const core::Instance& instance,
                              bool dense_interest, SectionFileWriter* file) {
  const int32_t nv = instance.num_events();
  const int32_t nu = instance.num_users();
  auto impl = std::make_unique<BinaryInstanceWriter::Impl>();
  impl->dense_interest = dense_interest;
  BinaryInstanceHeader& header = impl->header;
  header.num_events = nv;
  header.num_users = nu;
  header.num_bids = instance.TotalBids();
  header.beta = instance.beta();
  header.kernel_id = instance.kernel().id();
  for (EventId a = 0; a < nv; ++a) {
    for (EventId b = a + 1; b < nv; ++b) {
      if (instance.Conflicts(a, b)) ++header.num_conflicts;
    }
  }
  IGEPA_ASSIGN_OR_RETURN(BinaryInstanceWriter writer,
                         BinaryInstanceWriter::Begin(std::move(impl), file));
  for (EventId v = 0; v < nv; ++v) {
    IGEPA_RETURN_IF_ERROR(writer.AddEvent(instance.event_capacity(v)));
  }
  std::vector<double> interest;
  for (UserId u = 0; u < nu; ++u) {
    const std::vector<EventId>& bids = instance.bids(u);
    interest.clear();
    if (!dense_interest) {
      for (EventId v : bids) interest.push_back(instance.Interest(v, u));
    }
    IGEPA_RETURN_IF_ERROR(writer.AddUser(instance.user_capacity(u), bids,
                                         interest, instance.Degree(u)));
  }
  if (dense_interest) {
    std::vector<double> row(static_cast<size_t>(nu));  // one event's values
    for (EventId v = 0; v < nv; ++v) {
      for (UserId u = 0; u < nu; ++u) {
        row[static_cast<size_t>(u)] = instance.Interest(v, u);
        if (!InUnit(row[static_cast<size_t>(u)])) {
          return Status::InvalidArgument("interest values must be in [0, 1]");
        }
      }
      writer.impl_->sink(kInterest).Write(row.data(),
                                          row.size() * sizeof(double));
    }
  }
  for (EventId a = 0; a < nv; ++a) {
    for (EventId b = a + 1; b < nv; ++b) {
      if (instance.Conflicts(a, b)) {
        IGEPA_RETURN_IF_ERROR(writer.AddConflict(a, b));
      }
    }
  }
  return writer.Finish();
}

Result<core::Instance> ReadInstanceSections(const SectionFile& file,
                                            int32_t first) {
  InstanceView view;
  IGEPA_RETURN_IF_ERROR(view.Decode(file, first, /*dense_interest=*/true));
  const int32_t nv = view.num_events();
  const int32_t nu = view.num_users();
  auto kernel = core::MakeUtilityKernel(view.kernel_id());
  if (!kernel.ok()) return file.Refuse(kernel.status().message());
  std::vector<core::EventDef> events(static_cast<size_t>(nv));
  for (EventId v = 0; v < nv; ++v) {
    events[static_cast<size_t>(v)].capacity = view.event_capacity(v);
  }
  std::vector<core::UserDef> users(static_cast<size_t>(nu));
  for (UserId u = 0; u < nu; ++u) {
    users[static_cast<size_t>(u)].capacity = view.user_capacity(u);
    const auto bids = view.bids(u);
    users[static_cast<size_t>(u)].bids.assign(bids.begin(), bids.end());
  }
  auto interest = std::make_shared<interest::TableInterest>(nv, nu);
  for (EventId v = 0; v < nv; ++v) {
    for (UserId u = 0; u < nu; ++u) {
      interest->Set(v, u, view.interest_[static_cast<int64_t>(v) * nu + u]);
    }
  }
  auto conflicts = std::make_shared<conflict::MatrixConflict>(nv);
  for (int64_t i = 0; i < view.num_conflicts(); ++i) {
    conflicts->Set(view.conflicts_[2 * i], view.conflicts_[2 * i + 1]);
  }
  core::Instance instance(
      std::move(events), std::move(users), std::move(conflicts),
      std::move(interest),
      std::make_shared<graph::TableInteractionModel>(
          std::vector<double>(view.degree_, view.degree_ + nu)),
      view.beta());
  instance.set_kernel(std::move(*kernel));
  if (Status s = instance.Validate(); !s.ok()) return file.Refuse(s.message());
  return instance;
}

// ---- InstanceView -----------------------------------------------------------

Result<InstanceView> InstanceView::Open(const std::string& path) {
  IGEPA_ASSIGN_OR_RETURN(SectionFile file, SectionFile::Open(path, kFormat));
  if (file.records().size() != kInstanceSections) {
    return file.Refuse("expected " + std::to_string(kInstanceSections) +
                       " sections");
  }
  InstanceView view;
  IGEPA_RETURN_IF_ERROR(view.Decode(file, 0, /*dense_interest=*/false));
  view.file_ = std::move(file);  // the mapping, and so every pointer, stays
  return view;
}

Status InstanceView::Decode(const SectionFile& file, int32_t first,
                            bool dense_interest) {
  const std::vector<SectionRecord>& records = file.records();
  if (first < 0 ||
      records.size() < static_cast<size_t>(first) + kInstanceSections) {
    return file.Refuse("missing instance sections");
  }
  const SectionRecord& meta = records[static_cast<size_t>(first)];
  if (meta.counts[0] > std::numeric_limits<int32_t>::max() ||
      meta.counts[1] >= std::numeric_limits<int32_t>::max() ||
      meta.counts[2] > kMaxCount || meta.counts[3] > kMaxCount ||
      (dense_interest && meta.counts[0] * meta.counts[1] > kMaxCount)) {
    return file.Refuse("implausible instance counts");
  }
  if (meta.bytes <= 8 || meta.bytes > 8 + kMaxKernelIdBytes) {
    return file.Refuse("implausible kernel id length");
  }
  num_events_ = static_cast<int32_t>(meta.counts[0]);
  num_users_ = static_cast<int32_t>(meta.counts[1]);
  num_bids_ = static_cast<int64_t>(meta.counts[2]);
  num_conflicts_ = static_cast<int64_t>(meta.counts[3]);
  const unsigned char* m = file.data(first + kMeta);
  beta_ = std::bit_cast<double>(GetU64(m));
  kernel_id_.assign(reinterpret_cast<const char*>(m + 8), meta.bytes - 8);
  if (!InUnit(beta_)) return file.Refuse("beta out of [0, 1]");
  if (!core::MakeUtilityKernel(kernel_id_).ok()) {
    return file.Refuse("unknown kernel id '" + kernel_id_ + "'");
  }
  const auto bytes = SectionBytes(meta.counts, meta.bytes, dense_interest);
  for (int32_t s = kEventCap; s < kInstanceSections; ++s) {
    if (records[static_cast<size_t>(first + s)].bytes !=
        bytes[static_cast<size_t>(s)]) {
      return file.Refuse("instance section " + std::to_string(s) +
                         " length disagrees with the counts");
    }
  }
  event_cap_ = file.As<int32_t>(first + kEventCap);
  user_cap_ = file.As<int32_t>(first + kUserCap);
  bid_off_ = file.As<int64_t>(first + kBidOff);
  pool_ = file.As<int32_t>(first + kBidPool);
  interest_ = file.As<double>(first + kInterest);
  degree_ = file.As<double>(first + kDegree);
  conflicts_ = file.As<int32_t>(first + kConflicts);

  // One linear pass over sections the framing's CRC sweep already paged in,
  // so every accessor can be an unchecked read.
  const int32_t nv = num_events_;
  const int32_t nu = num_users_;
  if (bid_off_[0] != 0 || bid_off_[nu] != num_bids_) {
    return file.Refuse("bid offsets do not close over the pool");
  }
  for (UserId u = 0; u < nu; ++u) {
    if (user_cap_[u] < 0) return file.Refuse("negative user capacity");
    const int64_t b = bid_off_[u];
    const int64_t e = bid_off_[u + 1];
    if (b > e || e > num_bids_) return file.Refuse("bid offsets not monotone");
    EventId prev = -1;
    for (int64_t i = b; i < e; ++i) {
      const EventId v = pool_[i];
      if (v <= prev || v >= nv) {
        return file.Refuse("bid pool not ascending in range");
      }
      if (!dense_interest && !InUnit(interest_[i])) {
        return file.Refuse("interest out of [0, 1]");
      }
      prev = v;
    }
    if (!InUnit(degree_[u])) return file.Refuse("degree out of [0, 1]");
  }
  if (dense_interest) {
    const int64_t cells = static_cast<int64_t>(nv) * nu;
    for (int64_t i = 0; i < cells; ++i) {
      if (!InUnit(interest_[i])) return file.Refuse("interest out of [0, 1]");
    }
  }
  for (EventId v = 0; v < nv; ++v) {
    if (event_cap_[v] < 0) return file.Refuse("negative event capacity");
  }
  EventId pa = -1, pb = -1;
  for (int64_t i = 0; i < num_conflicts_; ++i) {
    const EventId a = conflicts_[2 * i];
    const EventId b = conflicts_[2 * i + 1];
    if (a < 0 || b >= nv || a >= b) return file.Refuse("bad conflict pair");
    if (a < pa || (a == pa && b <= pb)) {
      return file.Refuse("conflicts not sorted");
    }
    pa = a;
    pb = b;
  }
  return Status::OK();
}

bool InstanceView::HasBid(UserId u, EventId v) const {
  const auto span = bids(u);
  return std::binary_search(span.begin(), span.end(), v);
}

double InstanceView::Interest(EventId v, UserId u) const {
  const int64_t b = bid_off_[u];
  const int64_t e = bid_off_[u + 1];
  const int32_t* lo = std::lower_bound(pool_ + b, pool_ + e, v);
  if (lo == pool_ + e || *lo != v) return 0.0;
  return interest_[lo - pool_];
}

bool InstanceView::Conflicts(EventId a, EventId b) const {
  if (a == b) return false;
  const EventId lo = std::min(a, b);
  const EventId hi = std::max(a, b);
  int64_t left = 0;
  int64_t right = num_conflicts_;
  while (left < right) {
    const int64_t mid = left + (right - left) / 2;
    const EventId ma = conflicts_[2 * mid];
    const EventId mb = conflicts_[2 * mid + 1];
    if (ma < lo || (ma == lo && mb < hi)) {
      left = mid + 1;
    } else if (ma == lo && mb == hi) {
      return true;
    } else {
      right = mid;
    }
  }
  return false;
}

// ---- Materialization --------------------------------------------------------

namespace {

/// Interest/interaction/conflict functions that serve reads straight out of a
/// shared mmap view — the glue that makes a view-backed core::Instance cost
/// O(total bids) RAM instead of a dense |V|×|U| table.
class ViewInterestFn final : public interest::InterestFn {
 public:
  explicit ViewInterestFn(std::shared_ptr<const InstanceView> view)
      : view_(std::move(view)) {}
  int32_t num_events() const override { return view_->num_events(); }
  int32_t num_users() const override { return view_->num_users(); }
  double Interest(int32_t event, int32_t user) const override {
    return view_->Interest(event, user);
  }

 private:
  std::shared_ptr<const InstanceView> view_;
};

class ViewInteractionModel final : public graph::InteractionModel {
 public:
  explicit ViewInteractionModel(std::shared_ptr<const InstanceView> view)
      : view_(std::move(view)) {}
  int32_t num_users() const override { return view_->num_users(); }
  double Degree(int32_t user) const override { return view_->Degree(user); }

 private:
  std::shared_ptr<const InstanceView> view_;
};

class ViewConflictFn final : public conflict::ConflictFn {
 public:
  explicit ViewConflictFn(std::shared_ptr<const InstanceView> view)
      : view_(std::move(view)) {}
  conflict::EventId num_events() const override { return view_->num_events(); }
  bool Conflicts(conflict::EventId a, conflict::EventId b) const override {
    return view_->Conflicts(a, b);
  }

 private:
  std::shared_ptr<const InstanceView> view_;
};

}  // namespace

Result<core::Instance> MaterializeInstance(
    std::shared_ptr<const InstanceView> view) {
  if (view == nullptr) return Status::InvalidArgument("null view");
  IGEPA_ASSIGN_OR_RETURN(std::shared_ptr<const core::UtilityKernel> kernel,
                         core::MakeUtilityKernel(view->kernel_id()));
  const int32_t nv = view->num_events();
  const int32_t nu = view->num_users();
  std::vector<core::EventDef> events(static_cast<size_t>(nv));
  for (EventId v = 0; v < nv; ++v) {
    events[static_cast<size_t>(v)].capacity = view->event_capacity(v);
  }
  std::vector<core::UserDef> users(static_cast<size_t>(nu));
  for (UserId u = 0; u < nu; ++u) {
    auto& user = users[static_cast<size_t>(u)];
    user.capacity = view->user_capacity(u);
    const auto bids = view->bids(u);
    user.bids.assign(bids.begin(), bids.end());
  }
  core::Instance instance(std::move(events), std::move(users),
                          std::make_shared<ViewConflictFn>(view),
                          std::make_shared<ViewInterestFn>(view),
                          std::make_shared<ViewInteractionModel>(view),
                          view->beta());
  instance.set_kernel(std::move(kernel));
  IGEPA_RETURN_IF_ERROR(instance.Validate());
  return instance;
}

bool SniffBinaryInstance(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  char head[8] = {};
  if (!in.read(head, sizeof(head))) return false;
  return std::memcmp(head, kFormat.magic, sizeof(head)) == 0;
}

// ---- Instance → binary ------------------------------------------------------

Status WriteInstanceBinary(const core::Instance& instance,
                           const std::string& path) {
  IGEPA_ASSIGN_OR_RETURN(SectionFileWriter file,
                         SectionFileWriter::Create(path, kFormat));
  IGEPA_RETURN_IF_ERROR(
      AppendInstanceSections(instance, /*dense_interest=*/false, &file));
  IGEPA_RETURN_IF_ERROR(file.Seal());
  return file.Close(/*sync=*/false);
}

// ---- CSV ↔ binary conversion ------------------------------------------------

namespace {

struct CsvHeader {
  int32_t num_events = 0;
  int32_t num_users = 0;
  double beta = 0.0;
  bool v2 = false;
};

Status ParseCsvHeader(std::istream& in, const std::string& path,
                      CsvHeader* out) {
  std::string line;
  if (!std::getline(in, line)) {
    return Status::IOError("empty instance file: " + path);
  }
  const auto header = Split(Trim(line), ',');
  if (header.size() != 5 || header[0] != "igepa" ||
      (header[1] != "1" && header[1] != "2")) {
    return Status::InvalidArgument("bad instance header in " + path);
  }
  out->v2 = header[1] == "2";
  int64_t nv = 0, nu = 0;
  if (!ParseInt(header[2], &nv) || !ParseInt(header[3], &nu) ||
      !ParseDouble(header[4], &out->beta) || nv < 0 || nu < 0) {
    return Status::InvalidArgument("bad instance header fields in " + path);
  }
  out->num_events = static_cast<int32_t>(nv);
  out->num_users = static_cast<int32_t>(nu);
  return Status::OK();
}

/// Parses a `user` line's bid field into `bids`, normalized (sorted,
/// deduplicated, ids validated against nv).
Status ParseUserBids(const std::string& field, int32_t nv,
                     std::vector<EventId>* bids) {
  bids->clear();
  if (field.empty()) return Status::OK();
  for (const auto& token : Split(field, ';')) {
    int64_t v = 0;
    if (!ParseInt(token, &v) || v < 0 || v >= nv) {
      return Status::InvalidArgument("bad bid id '" + std::string(token) + "'");
    }
    bids->push_back(static_cast<EventId>(v));
  }
  std::sort(bids->begin(), bids->end());
  bids->erase(std::unique(bids->begin(), bids->end()), bids->end());
  return Status::OK();
}

}  // namespace

Status ConvertCsvToBinary(const std::string& csv_path,
                          const std::string& bin_path) {
  // Pass 1 — counts: per-user bid-list sizes (normalized), conflict pairs and
  // the kernel id. Flat arrays only; the dense |V|×|U| interest table the CSV
  // reader allocates never exists on this path.
  std::ifstream in(csv_path);
  if (!in.is_open()) {
    return Status::IOError("cannot open for reading: " + csv_path);
  }
  CsvHeader header;
  IGEPA_RETURN_IF_ERROR(ParseCsvHeader(in, csv_path, &header));
  const int32_t nv = header.num_events;
  const int32_t nu = header.num_users;
  std::string kernel_id = core::DefaultUtilityKernel()->id();
  std::vector<int64_t> bid_off(static_cast<size_t>(nu) + 1, 0);
  std::vector<EventId> scratch_bids;
  std::vector<std::pair<EventId, EventId>> conflicts;
  std::string line;
  const auto bad = [&](const std::string& why) {
    return Status::InvalidArgument(why + " in " + csv_path);
  };
  while (std::getline(in, line)) {
    const auto trimmed = Trim(line);
    if (trimmed.empty()) continue;
    const auto fields = Split(trimmed, ',');
    const auto& kind = fields[0];
    if (kind == "user") {
      if (fields.size() != 4) return bad("bad user line");
      int64_t id = 0;
      if (!ParseInt(fields[1], &id) || id < 0 || id >= nu) {
        return bad("user id out of range");
      }
      IGEPA_RETURN_IF_ERROR(ParseUserBids(fields[3], nv, &scratch_bids));
      bid_off[static_cast<size_t>(id) + 1] =
          static_cast<int64_t>(scratch_bids.size());
    } else if (kind == "conflict") {
      if (fields.size() != 3) return bad("bad conflict line");
      int64_t a = 0, b = 0;
      if (!ParseInt(fields[1], &a) || !ParseInt(fields[2], &b) || a < 0 ||
          b < 0 || a >= nv || b >= nv || a == b) {
        return bad("conflict ids out of range");
      }
      conflicts.emplace_back(static_cast<EventId>(std::min(a, b)),
                             static_cast<EventId>(std::max(a, b)));
    } else if (kind == "kernel") {
      if (!header.v2) return bad("kernel record requires format version 2");
      if (fields.size() != 2 || fields[1].empty()) return bad("bad kernel line");
      kernel_id = fields[1];
    } else if (kind != "event" && kind != "interest" && kind != "degree") {
      return bad("unknown line kind '" + std::string(kind) + "'");
    }
  }
  std::sort(conflicts.begin(), conflicts.end());
  conflicts.erase(std::unique(conflicts.begin(), conflicts.end()),
                  conflicts.end());
  for (UserId u = 0; u < nu; ++u) bid_off[u + 1] += bid_off[u];
  const int64_t num_bids = bid_off[static_cast<size_t>(nu)];

  // Pass 2 — structure: capacities and the bid pool land in flat arrays at
  // their pass-1 offsets.
  std::vector<int32_t> event_cap(static_cast<size_t>(nv), 0);
  std::vector<int32_t> user_cap(static_cast<size_t>(nu), 0);
  std::vector<EventId> pool(static_cast<size_t>(num_bids), 0);
  in.clear();
  in.seekg(0);
  std::getline(in, line);  // header, already parsed
  while (std::getline(in, line)) {
    const auto trimmed = Trim(line);
    if (trimmed.empty()) continue;
    const auto fields = Split(trimmed, ',');
    const auto& kind = fields[0];
    if (kind == "event") {
      if (fields.size() != 3) return bad("bad event line");
      int64_t id = 0, cap = 0;
      if (!ParseInt(fields[1], &id) || !ParseInt(fields[2], &cap) || id < 0 ||
          id >= nv || cap < 0) {
        return bad("bad event fields");
      }
      event_cap[static_cast<size_t>(id)] = static_cast<int32_t>(cap);
    } else if (kind == "user") {
      int64_t id = 0, cap = 0;
      if (!ParseInt(fields[1], &id) || !ParseInt(fields[2], &cap) || cap < 0) {
        return bad("bad user fields");
      }
      user_cap[static_cast<size_t>(id)] = static_cast<int32_t>(cap);
      IGEPA_RETURN_IF_ERROR(ParseUserBids(fields[3], nv, &scratch_bids));
      std::copy(scratch_bids.begin(), scratch_bids.end(),
                pool.begin() + bid_off[static_cast<size_t>(id)]);
    }
  }

  // Pass 3 — values: interest lands at its pool slot (binary search in the
  // user's bid span); non-bid pairs are unrepresentable in igepa-bin and
  // dropped, which is algorithm-equivalent (only bid pairs are ever
  // evaluated).
  std::vector<double> interest(static_cast<size_t>(num_bids), 0.0);
  std::vector<double> degree(static_cast<size_t>(nu), 0.0);
  in.clear();
  in.seekg(0);
  std::getline(in, line);
  while (std::getline(in, line)) {
    const auto trimmed = Trim(line);
    if (trimmed.empty()) continue;
    const auto fields = Split(trimmed, ',');
    const auto& kind = fields[0];
    if (kind == "interest") {
      if (fields.size() != 4) return bad("bad interest line");
      int64_t v = 0, u = 0;
      double value = 0.0;
      if (!ParseInt(fields[1], &v) || !ParseInt(fields[2], &u) ||
          !ParseDouble(fields[3], &value) || v < 0 || v >= nv || u < 0 ||
          u >= nu || value < 0.0 || value > 1.0) {
        return bad("bad interest fields");
      }
      const int64_t b = bid_off[static_cast<size_t>(u)];
      const int64_t e = bid_off[static_cast<size_t>(u) + 1];
      const auto it = std::lower_bound(pool.begin() + b, pool.begin() + e,
                                       static_cast<EventId>(v));
      if (it != pool.begin() + e && *it == static_cast<EventId>(v)) {
        interest[static_cast<size_t>(it - pool.begin())] = value;
      }
    } else if (kind == "degree") {
      if (fields.size() != 3) return bad("bad degree line");
      int64_t u = 0;
      double value = 0.0;
      if (!ParseInt(fields[1], &u) || !ParseDouble(fields[2], &value) ||
          u < 0 || u >= nu || value < 0.0 || value > 1.0) {
        return bad("bad degree fields");
      }
      degree[static_cast<size_t>(u)] = value;
    }
  }
  in.close();

  BinaryInstanceHeader bin_header;
  bin_header.num_events = nv;
  bin_header.num_users = nu;
  bin_header.num_bids = num_bids;
  bin_header.num_conflicts = static_cast<int64_t>(conflicts.size());
  bin_header.beta = header.beta;
  bin_header.kernel_id = kernel_id;
  IGEPA_ASSIGN_OR_RETURN(BinaryInstanceWriter writer,
                         BinaryInstanceWriter::Create(bin_path, bin_header));
  for (EventId v = 0; v < nv; ++v) {
    IGEPA_RETURN_IF_ERROR(writer.AddEvent(event_cap[static_cast<size_t>(v)]));
  }
  for (UserId u = 0; u < nu; ++u) {
    const int64_t b = bid_off[static_cast<size_t>(u)];
    const int64_t e = bid_off[static_cast<size_t>(u) + 1];
    IGEPA_RETURN_IF_ERROR(writer.AddUser(
        user_cap[static_cast<size_t>(u)],
        std::span<const EventId>(pool.data() + b, static_cast<size_t>(e - b)),
        std::span<const double>(interest.data() + b,
                                static_cast<size_t>(e - b)),
        degree[static_cast<size_t>(u)]));
  }
  for (const auto& [a, b] : conflicts) {
    IGEPA_RETURN_IF_ERROR(writer.AddConflict(a, b));
  }
  return writer.Finish();
}

Status ConvertBinaryToCsv(const std::string& bin_path,
                          const std::string& csv_path) {
  IGEPA_ASSIGN_OR_RETURN(InstanceView view, InstanceView::Open(bin_path));
  auto shared = std::make_shared<const InstanceView>(std::move(view));
  IGEPA_ASSIGN_OR_RETURN(core::Instance instance, MaterializeInstance(shared));
  return WriteInstanceCsv(instance, csv_path);
}

}  // namespace io
}  // namespace igepa
