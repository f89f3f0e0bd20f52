#ifndef IGEPA_IO_CATALOG_SPILL_H_
#define IGEPA_IO_CATALOG_SPILL_H_

#include <cstdint>
#include <memory>
#include <string>

#include "core/catalog_lanes.h"
#include "util/mmap.h"
#include "util/result.h"

namespace igepa {
namespace io {

/// The `igepa-cat,2` spilled-catalog format (FORMATS.md §9): one per-run
/// section file (§10) with one section per shard catalog — user offsets, CSR
/// column offsets, event-id pool, weight lane, column owners and the
/// inverted event→column index, each sub-array 8-byte aligned inside its
/// page-aligned section, the four counts in the section's directory record.
///
/// Lifecycle: `Create` → concurrent `Append` (one call per shard catalog,
/// thread-safe; the section framing reserves offsets under its mutex and the
/// writes land in disjoint ranges, CRCs chained while writing) → `Seal`
/// (directory + trailer, no payload re-read) → `Map` served from the kept fd,
/// so the caller may unlink the path right after Create and a crash never
/// leaks a spill file. `Open` re-opens a sealed file through the shared
/// section reader, which validates everything — header, directory, trailer
/// and every section CRC — so a truncated, tampered or foreign file is an
/// IOError before any accessor.

/// Read-only mapping of one catalog section, exposing the same CatalogLanes
/// view AdmissibleCatalog::Lanes() exports — zero rehydration, the SIMD
/// μ-sum scan reads weight lanes straight out of the mapped bytes. Move-only;
/// on a Create'd spill, destruction munmaps (dropping the pages from RSS
/// while the kernel page cache keeps them warm for a cheap repage); on an
/// Open'd spill the view reads the spill's own mapping and must not outlive
/// it.
class CatalogView {
 public:
  CatalogView() = default;
  CatalogView(CatalogView&&) noexcept = default;
  CatalogView& operator=(CatalogView&&) noexcept = default;
  CatalogView(const CatalogView&) = delete;
  CatalogView& operator=(const CatalogView&) = delete;

  const core::CatalogLanes& lanes() const { return lanes_; }

 private:
  friend class CatalogSpill;
  util::MappedRegion region_;
  core::CatalogLanes lanes_;
};

class CatalogSpill {
 public:
  /// Creates `path` (truncating) for writing.
  static Result<CatalogSpill> Create(const std::string& path);

  /// Opens a sealed file read-only and validates it fully (the section
  /// framing, then each section's counts against its length). Refused files
  /// are IOError before any accessor.
  static Result<CatalogSpill> Open(const std::string& path);

  CatalogSpill(CatalogSpill&&) noexcept;
  CatalogSpill& operator=(CatalogSpill&&) noexcept;
  CatalogSpill(const CatalogSpill&) = delete;
  CatalogSpill& operator=(const CatalogSpill&) = delete;
  ~CatalogSpill();

  /// Serializes one canonical catalog as the next section and returns its
  /// index. Thread-safe: the offset reservation is mutex-guarded, the writes
  /// land in disjoint ranges without the lock. Only valid on a Create'd
  /// spill before Seal.
  Result<int32_t> Append(const core::CatalogLanes& lanes);

  /// Writes the directory and CRC trailer. Must be called exactly once on a
  /// Create'd spill before Map; the caller may unlink the path afterwards
  /// (maps are served from the kept fd).
  Status Seal();

  /// Maps catalog `index` and returns its lanes view. The section's CRC is
  /// verified on its first Map (Open-path files were already swept).
  /// Thread-safe.
  Result<CatalogView> Map(int32_t index) const;

  int32_t num_catalogs() const;
  /// Payload bytes of one section / summed over all sections / the largest
  /// single section (the "one shard's catalog footprint" a residency budget
  /// is validated against).
  uint64_t section_bytes(int32_t index) const;
  uint64_t total_bytes() const;
  uint64_t max_section_bytes() const;
  const std::string& path() const;

 private:
  struct Impl;
  explicit CatalogSpill(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

}  // namespace io
}  // namespace igepa

#endif  // IGEPA_IO_CATALOG_SPILL_H_
