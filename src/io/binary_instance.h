#ifndef IGEPA_IO_BINARY_INSTANCE_H_
#define IGEPA_IO_BINARY_INSTANCE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/instance.h"
#include "core/types.h"
#include "io/section_file.h"
#include "util/result.h"

namespace igepa {
namespace io {

/// The `igepa-bin,4` memory-mapped binary instance format (FORMATS.md §8):
/// a section file (§10) whose eight instance sections — counts, β and kernel
/// id; event capacities; user capacities; bid offsets; bid pool; per-bid
/// interest; per-user degree; sorted conflict pairs — are fixed-width
/// little-endian arrays, so an `InstanceView` serves reads straight out of the
/// mapping with zero parsing or allocation: the scale path for instances
/// whose dense CSV representation no longer fits. The serve snapshot embeds
/// the same sections (AppendInstanceSections / ReadInstanceSections).

/// Fixed per-file metadata the writer needs up front: section offsets are a
/// pure function of these counts, which is what lets both the streaming
/// generator and the CSV converter emit the file in one sequential pass.
struct BinaryInstanceHeader {
  int32_t num_events = 0;
  int32_t num_users = 0;
  int64_t num_bids = 0;       // total bid pairs across all users
  int64_t num_conflicts = 0;  // unordered conflicting event pairs
  double beta = 0.0;
  /// Utility-kernel id (core::MakeUtilityKernel vocabulary). Unlike CSV v1/v2
  /// there is no version split: the id is always stored.
  std::string kernel_id;
};

/// Streaming writer: records are appended strictly in id order (all events,
/// then all users, then all conflicts) and land in their sections through
/// per-section buffered cursors, so peak memory is O(buffering) no matter how
/// large the instance is. Section CRCs are chained while streaming, so the
/// file is never re-read. The produced file is byte-deterministic: identical
/// record sequences produce identical files.
class BinaryInstanceWriter {
 public:
  /// Creates `path` (truncating) and reserves the sections the header's
  /// counts size. The declared counts are binding: Finish() fails unless
  /// exactly that many records arrived.
  static Result<BinaryInstanceWriter> Create(const std::string& path,
                                             const BinaryInstanceHeader& header);

  BinaryInstanceWriter(BinaryInstanceWriter&& other) noexcept;
  BinaryInstanceWriter& operator=(BinaryInstanceWriter&& other) noexcept;
  BinaryInstanceWriter(const BinaryInstanceWriter&) = delete;
  BinaryInstanceWriter& operator=(const BinaryInstanceWriter&) = delete;
  ~BinaryInstanceWriter();

  /// Event `next_event_id` gets this capacity.
  Status AddEvent(int32_t capacity);

  /// User `next_user_id`: capacity, strictly ascending in-range bids, one
  /// interest value per bid (SI of that pair) and the user's degree D(G, u).
  Status AddUser(int32_t capacity, std::span<const core::EventId> bids,
                 std::span<const double> interest, double degree);

  /// One conflicting pair, a < b, strictly ascending lexicographically.
  Status AddConflict(core::EventId a, core::EventId b);

  /// Flushes every section and seals the file. Must be called exactly once;
  /// if skipped the file keeps a zero header and is refused — a finished
  /// file always has its directory and trailer.
  Status Finish();

 private:
  struct Impl;
  explicit BinaryInstanceWriter(std::unique_ptr<Impl> impl);
  /// Reserves the instance sections on `file` (owned by the caller unless
  /// impl->owned is set) and writes the first one.
  static Result<BinaryInstanceWriter> Begin(std::unique_ptr<Impl> impl,
                                            SectionFileWriter* file);
  friend Status AppendInstanceSections(const core::Instance& instance,
                                       bool dense_interest,
                                       SectionFileWriter* file);
  std::unique_ptr<Impl> impl_;
};

/// Read-only, memory-mapped view of one `igepa-bin,4` file with the same
/// accessor surface as core::Instance, so weight/kernel code is
/// format-agnostic. `Open` maps the file and validates everything eagerly —
/// the section framing (magic, version, size, every CRC), then offset
/// monotonicity, id and value ranges — so accessors can be unchecked array
/// reads. Move-only; callers that hand sub-views to adapters wrap it in a
/// shared_ptr.
class InstanceView {
 public:
  /// Maps and fully validates `path`. Truncated, tampered or foreign files
  /// are refused with IOError before any accessor can observe them.
  static Result<InstanceView> Open(const std::string& path);

  InstanceView(InstanceView&& other) noexcept = default;
  InstanceView& operator=(InstanceView&& other) noexcept = default;
  InstanceView(const InstanceView&) = delete;
  InstanceView& operator=(const InstanceView&) = delete;

  int32_t num_events() const { return num_events_; }
  int32_t num_users() const { return num_users_; }
  int64_t num_bids() const { return num_bids_; }
  int64_t num_conflicts() const { return num_conflicts_; }
  double beta() const { return beta_; }
  const std::string& kernel_id() const { return kernel_id_; }

  int32_t event_capacity(core::EventId v) const { return event_cap_[v]; }
  int32_t user_capacity(core::UserId u) const { return user_cap_[u]; }

  /// The user's bid set N_u (ascending), straight out of the mapping.
  std::span<const core::EventId> bids(core::UserId u) const {
    const int64_t b = bid_off_[u];
    return {pool_ + b, static_cast<size_t>(bid_off_[u + 1] - b)};
  }

  bool HasBid(core::UserId u, core::EventId v) const;

  /// σ(l_v, l_v'): binary search over the sorted conflict-pair section.
  bool Conflicts(core::EventId a, core::EventId b) const;

  /// SI(l_v, l_u): the stored per-bid value, 0 for non-bid pairs — the same
  /// sparse semantics as the CSV format (§1), whose interest lines cover bid
  /// pairs only.
  double Interest(core::EventId v, core::UserId u) const;

  /// D(G, u).
  double Degree(core::UserId u) const { return degree_[u]; }

  /// Definition-6 pair weight β·SI + (1-β)·D (the default kernel's value).
  double Weight(core::EventId v, core::UserId u) const {
    return beta_ * Interest(v, u) + (1.0 - beta_) * Degree(u);
  }

 private:
  friend Result<core::Instance> ReadInstanceSections(const SectionFile& file,
                                                     int32_t first);
  InstanceView() = default;

  /// Points this view at the instance sections starting at `first` of a
  /// validated file and checks them (lengths against the counts, offsets,
  /// ids, values in [0, 1]). With `dense_interest`, interest_ holds
  /// |V|·|U| event-major values and Interest() does not apply.
  Status Decode(const SectionFile& file, int32_t first, bool dense_interest);

  SectionFile file_;  // owns the mapping when opened from a path
  int32_t num_events_ = 0;
  int32_t num_users_ = 0;
  int64_t num_bids_ = 0;
  int64_t num_conflicts_ = 0;
  double beta_ = 0.0;
  std::string kernel_id_;
  // Typed section pointers into the mapping.
  const int32_t* event_cap_ = nullptr;
  const int32_t* user_cap_ = nullptr;
  const int64_t* bid_off_ = nullptr;   // size num_users + 1
  const int32_t* pool_ = nullptr;      // size num_bids
  const double* interest_ = nullptr;   // size num_bids, parallel to pool_
  const double* degree_ = nullptr;     // size num_users
  const int32_t* conflicts_ = nullptr; // 2 * num_conflicts, (a, b) pairs
};

/// Builds a solvable core::Instance over the view: users and bids are
/// materialized (O(total bids) memory), interest/degree/conflicts stay
/// mmap-backed adapters, and the stored kernel id is installed. No dense
/// |V|×|U| table is ever allocated — the difference that lets million-user
/// instances load where the CSV reader cannot.
Result<core::Instance> MaterializeInstance(
    std::shared_ptr<const InstanceView> view);

/// True when `path` starts with the igepa-bin magic (how the CLI
/// auto-detects the input format; other versions are then refused by Open).
/// IO errors read as "not binary".
bool SniffBinaryInstance(const std::string& path);

/// Streams `instance` into the binary format (id order, sorted conflicts).
Status WriteInstanceBinary(const core::Instance& instance,
                           const std::string& path);

/// CSV → binary, streaming: three passes over the CSV (count, structure,
/// values) against flat O(|U| + bids + conflicts) arrays — never the CSV
/// reader's dense interest table. User bid lists are normalized (sorted,
/// deduplicated), which is a no-op for files written by this repo.
Status ConvertCsvToBinary(const std::string& csv_path,
                          const std::string& bin_path);

/// The instance sections' count (AppendInstanceSections writes them in
/// order; ReadInstanceSections reads them from a given first index).
inline constexpr int32_t kInstanceSections = 8;

/// Appends `instance` to `file` as the instance sections (id order, sorted
/// conflicts). `dense_interest` stores SI for every (event, user) pair,
/// event-major, in place of the per-bid values: a served instance is live,
/// and a later re-registration adds bids whose SI must read what the
/// original interest model gave — the serve snapshot needs that, a solve of
/// a frozen instance does not.
Status AppendInstanceSections(const core::Instance& instance,
                              bool dense_interest, SectionFileWriter* file);

/// Rebuilds an owning instance (table-backed interest, degree and conflicts)
/// from dense-interest instance sections starting at `first` of a validated
/// file (the serve snapshot's; igepa-bin files open as an InstanceView).
/// Malformed sections are IOError.
Result<core::Instance> ReadInstanceSections(const SectionFile& file,
                                            int32_t first);

/// Binary → CSV via the mmap view; produces exactly the bytes
/// io::WriteInstanceCsv would for the same instance, so CSV → binary → CSV
/// round-trips byte-identically on files this repo generates.
Status ConvertBinaryToCsv(const std::string& bin_path,
                          const std::string& csv_path);

}  // namespace io
}  // namespace igepa

#endif  // IGEPA_IO_BINARY_INSTANCE_H_
