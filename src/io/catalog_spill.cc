#include "io/catalog_spill.h"

#include <algorithm>
#include <limits>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "io/section_file.h"
#include "util/crc32.h"

namespace igepa {
namespace io {

namespace {

constexpr SectionFormat kFormat{"igepacat", 2, "igepa-cat,2"};

uint64_t Align8(uint64_t n) { return (n + 7u) & ~uint64_t{7}; }

/// Sub-array offsets inside one catalog section — a pure function of the
/// four counts, every array 8-byte aligned (the section base is
/// page-aligned, so mapped pointers are naturally aligned for their types).
struct SectionLayout {
  uint64_t user_begin_off, col_begin_off, pool_off, weight_off, col_user_off,
      event_begin_off, event_cols_off, bytes;

  static SectionLayout Of(int32_t nu, int32_t nv, int32_t ncols,
                          int64_t npairs) {
    SectionLayout l;
    l.user_begin_off = 0;
    l.col_begin_off =
        Align8(l.user_begin_off + (static_cast<uint64_t>(nu) + 1) * 4);
    l.pool_off = l.col_begin_off + (static_cast<uint64_t>(ncols) + 1) * 8;
    l.weight_off = Align8(l.pool_off + static_cast<uint64_t>(npairs) * 4);
    l.col_user_off = l.weight_off + static_cast<uint64_t>(ncols) * 8;
    l.event_begin_off =
        Align8(l.col_user_off + static_cast<uint64_t>(ncols) * 4);
    l.event_cols_off =
        l.event_begin_off + (static_cast<uint64_t>(nv) + 1) * 8;
    l.bytes = Align8(l.event_cols_off + static_cast<uint64_t>(npairs) * 4);
    return l;
  }

  static SectionLayout Of(const SectionRecord& r) {
    return Of(static_cast<int32_t>(r.counts[0]),
              static_cast<int32_t>(r.counts[1]),
              static_cast<int32_t>(r.counts[2]),
              static_cast<int64_t>(r.counts[3]));
  }
};

}  // namespace

struct CatalogSpill::Impl {
  std::string path;
  std::optional<SectionFileWriter> writer;  // Create path
  std::optional<SectionFile> file;          // Open path
  bool sealed = false;
  uint64_t total_payload = 0;
  uint64_t max_payload = 0;
  /// Guards the lazy first-Map CRC validation bitmap (Create path only;
  /// Open verified every section up front).
  mutable std::mutex mutex;
  mutable std::vector<uint8_t> validated;

  const std::vector<SectionRecord>& records() const {
    return writer ? writer->records() : file->records();
  }

  void Summarize() {
    for (const SectionRecord& r : records()) {
      total_payload += r.bytes;
      max_payload = std::max(max_payload, r.bytes);
    }
  }
};

CatalogSpill::CatalogSpill(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
CatalogSpill::CatalogSpill(CatalogSpill&&) noexcept = default;
CatalogSpill& CatalogSpill::operator=(CatalogSpill&&) noexcept = default;
CatalogSpill::~CatalogSpill() = default;

Result<CatalogSpill> CatalogSpill::Create(const std::string& path) {
  auto impl = std::make_unique<Impl>();
  impl->path = path;
  IGEPA_ASSIGN_OR_RETURN(impl->writer,
                         SectionFileWriter::Create(path, kFormat));
  return CatalogSpill(std::move(impl));
}

Result<int32_t> CatalogSpill::Append(const core::CatalogLanes& lanes) {
  Impl* w = impl_.get();
  if (!w->writer) {
    return Status::FailedPrecondition("Append on an opened spill");
  }
  if (lanes.num_users < 0 || lanes.num_events < 0 || lanes.num_columns < 0 ||
      lanes.num_pairs < 0) {
    return Status::InvalidArgument("catalog lane counts must be >= 0");
  }
  const SectionLayout layout = SectionLayout::Of(
      lanes.num_users, lanes.num_events, lanes.num_columns, lanes.num_pairs);
  IGEPA_ASSIGN_OR_RETURN(
      SectionSink sink,
      w->writer->Reserve(layout.bytes,
                         {static_cast<uint64_t>(lanes.num_users),
                          static_cast<uint64_t>(lanes.num_events),
                          static_cast<uint64_t>(lanes.num_columns),
                          static_cast<uint64_t>(lanes.num_pairs)}));

  // Disjoint-range writes, no lock held; the alignment gaps are zeros.
  struct Piece {
    uint64_t off;
    const void* data;
    uint64_t size;
  };
  const Piece pieces[] = {
      {layout.user_begin_off, lanes.user_begin,
       (static_cast<uint64_t>(lanes.num_users) + 1) * 4},
      {layout.col_begin_off, lanes.col_begin,
       (static_cast<uint64_t>(lanes.num_columns) + 1) * 8},
      {layout.pool_off, lanes.pool,
       static_cast<uint64_t>(lanes.num_pairs) * 4},
      {layout.weight_off, lanes.weight,
       static_cast<uint64_t>(lanes.num_columns) * 8},
      {layout.col_user_off, lanes.col_user,
       static_cast<uint64_t>(lanes.num_columns) * 4},
      {layout.event_begin_off, lanes.event_begin,
       (static_cast<uint64_t>(lanes.num_events) + 1) * 8},
      {layout.event_cols_off, lanes.event_cols,
       static_cast<uint64_t>(lanes.num_pairs) * 4},
  };
  uint64_t covered = 0;
  for (const Piece& piece : pieces) {
    sink.WriteZeros(piece.off - covered);
    if (piece.size > 0) sink.Write(piece.data, piece.size);
    covered = piece.off + piece.size;
  }
  sink.WriteZeros(layout.bytes - covered);
  IGEPA_RETURN_IF_ERROR(sink.Finish());
  return sink.index();
}

Status CatalogSpill::Seal() {
  Impl* w = impl_.get();
  if (!w->writer) return Status::FailedPrecondition("Seal on an opened spill");
  IGEPA_RETURN_IF_ERROR(w->writer->Seal());
  w->sealed = true;
  w->Summarize();
  w->validated.assign(w->records().size(), 0);
  return Status::OK();
}

Result<CatalogSpill> CatalogSpill::Open(const std::string& path) {
  auto impl = std::make_unique<Impl>();
  impl->path = path;
  IGEPA_ASSIGN_OR_RETURN(impl->file, SectionFile::Open(path, kFormat));
  const SectionFile& file = *impl->file;
  for (const SectionRecord& r : file.records()) {
    constexpr uint64_t kMax32 = std::numeric_limits<int32_t>::max() - 1;
    if (r.counts[0] > kMax32 || r.counts[1] > kMax32 ||
        r.counts[2] > kMax32 || r.counts[3] > (uint64_t{1} << 40)) {
      return file.Refuse("implausible section counts");
    }
    if (SectionLayout::Of(r).bytes != r.bytes) {
      return file.Refuse("section length disagrees with its counts");
    }
  }
  impl->sealed = true;
  impl->Summarize();
  return CatalogSpill(std::move(impl));
}

Result<CatalogView> CatalogSpill::Map(int32_t index) const {
  Impl* w = impl_.get();
  if (!w->sealed) return Status::FailedPrecondition("Map before Seal");
  if (index < 0 || index >= num_catalogs()) {
    return Status::InvalidArgument("catalog index out of range");
  }
  const SectionRecord& r = w->records()[static_cast<size_t>(index)];
  CatalogView view;
  const unsigned char* base = nullptr;
  if (w->file) {
    base = w->file->data(index);  // validated by Open, mapped while it lives
  } else {
    // The padded extent: the same pages as the payload, and exactly what
    // the section CRC covers.
    IGEPA_ASSIGN_OR_RETURN(
        view.region_,
        util::MappedRegion::Map(w->writer->fd(), r.offset,
                                static_cast<size_t>(AlignToSection(r.bytes)),
                                w->path));
    std::lock_guard<std::mutex> lock(w->mutex);
    if (w->validated[static_cast<size_t>(index)] == 0) {
      if (Crc32(view.region_.data(), view.region_.size()) != r.crc) {
        return Status::IOError("invalid " + std::string(kFormat.name) +
                               " file " + w->path + ": section CRC mismatch");
      }
      w->validated[static_cast<size_t>(index)] = 1;
    }
    base = view.region_.bytes();
  }

  const SectionLayout layout = SectionLayout::Of(r);
  view.lanes_.num_users = static_cast<int32_t>(r.counts[0]);
  view.lanes_.num_events = static_cast<int32_t>(r.counts[1]);
  view.lanes_.num_columns = static_cast<int32_t>(r.counts[2]);
  view.lanes_.num_pairs = static_cast<int64_t>(r.counts[3]);
  view.lanes_.user_begin =
      reinterpret_cast<const int32_t*>(base + layout.user_begin_off);
  view.lanes_.col_begin =
      reinterpret_cast<const int64_t*>(base + layout.col_begin_off);
  view.lanes_.pool =
      reinterpret_cast<const core::EventId*>(base + layout.pool_off);
  view.lanes_.weight =
      reinterpret_cast<const double*>(base + layout.weight_off);
  view.lanes_.col_user =
      reinterpret_cast<const core::UserId*>(base + layout.col_user_off);
  view.lanes_.event_begin =
      reinterpret_cast<const int64_t*>(base + layout.event_begin_off);
  view.lanes_.event_cols =
      reinterpret_cast<const int32_t*>(base + layout.event_cols_off);
  return view;
}

int32_t CatalogSpill::num_catalogs() const {
  return static_cast<int32_t>(impl_->records().size());
}

uint64_t CatalogSpill::section_bytes(int32_t index) const {
  return impl_->records()[static_cast<size_t>(index)].bytes;
}

uint64_t CatalogSpill::total_bytes() const { return impl_->total_payload; }

uint64_t CatalogSpill::max_section_bytes() const { return impl_->max_payload; }

const std::string& CatalogSpill::path() const { return impl_->path; }

}  // namespace io
}  // namespace igepa
