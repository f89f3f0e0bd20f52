#ifndef IGEPA_IO_SECTION_FILE_H_
#define IGEPA_IO_SECTION_FILE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "util/mmap.h"
#include "util/result.h"

namespace igepa {
namespace io {

// ---- Little-endian bytes and full writes -----------------------------------
// The one copy every on-disk format (section files, the serve WAL, the
// sharded polish stream) encodes and writes through.

void PutU32(void* p, uint32_t v);
void PutU64(void* p, uint64_t v);
uint32_t GetU32(const void* p);
uint64_t GetU64(const void* p);

/// write(2) until all `size` bytes landed (EINTR retried). `path` names the
/// file in the IOError.
Status WriteFully(int fd, const void* data, size_t size,
                  const std::string& path);

/// pwrite(2) variant of WriteFully at an absolute file offset.
Status WriteFullyAt(int fd, const void* data, size_t size, uint64_t offset,
                    const std::string& path);

// ---- Section files (docs/FORMATS.md §10) -----------------------------------
//
// The binary framing under `igepa-bin`, `igepa-cat` and the serve snapshot:
// a header page (magic, version, section count, directory offset), then
// page-aligned sections each under its own CRC (payload + zero padding),
// then a directory of (offset, bytes, CRC, counts[4]) records and a trailer
// CRC over header page + directory. What a section holds and what its
// counts mean is the format's business; this layer only frames them.

/// Section offsets are multiples of this, so each section can be mmapped on
/// its own (mmap offsets must be page multiples; 4096 is the smallest page
/// size on every platform this repo targets).
inline constexpr uint64_t kSectionAlign = 4096;
inline constexpr int kSectionCounts = 4;

/// Identity of one format on the framing: the 8-byte magic at offset 0, the
/// version behind it, and the name refusals quote ("igepa-bin,4").
struct SectionFormat {
  const char* magic;  // exactly 8 bytes, no terminator needed
  uint32_t version;
  const char* name;
};

/// One directory record.
struct SectionRecord {
  uint64_t offset = 0;  // page-aligned
  uint64_t bytes = 0;   // payload bytes, padding excluded
  uint32_t crc = 0;     // payload + zero padding to the next page
  std::array<uint64_t, kSectionCounts> counts{};  // format-defined
};

uint64_t AlignToSection(uint64_t n);

/// Sequential writer of one reserved section: buffers appends, pwrites them
/// at the section's offset and chains the section CRC over exactly the bytes
/// it writes. The first IO or overflow error sticks and is reported by
/// status() and Finish(). Sinks of different sections may run on different
/// threads at once; none may outlive its writer.
class SectionSink {
 public:
  SectionSink() = default;
  SectionSink(SectionSink&&) noexcept = default;
  SectionSink& operator=(SectionSink&&) noexcept = default;
  SectionSink(const SectionSink&) = delete;
  SectionSink& operator=(const SectionSink&) = delete;

  void Write(const void* data, size_t size);
  void WriteZeros(size_t size);
  /// One scalar in its native (little-endian) representation.
  template <typename T>
  void WriteValue(T value) {
    Write(&value, sizeof(value));
  }

  /// Flushes, requires exactly the reserved byte count and records the
  /// section's CRC in the writer's directory. Call once.
  Status Finish();

  const Status& status() const { return status_; }
  int32_t index() const { return index_; }

 private:
  friend class SectionFileWriter;
  struct Shared;
  void Flush();

  Shared* shared_ = nullptr;
  int32_t index_ = -1;
  uint64_t offset_ = 0;    // file offset of the next flushed byte
  uint64_t remaining_ = 0; // reserved bytes not yet appended
  uint32_t crc_ = 0;
  std::string buf_;
  Status status_;
};

/// Builds one section file: Create → Reserve/stream/Finish each section (in
/// any order, from any thread) → Seal → Close. The file is never re-read:
/// every section CRC is chained while streaming and the trailer CRC covers
/// only header + directory. Identical reservations and writes give identical
/// bytes.
class SectionFileWriter {
 public:
  /// Creates `path` (truncating), O_RDWR so sealed sections can be mapped
  /// back through fd().
  static Result<SectionFileWriter> Create(const std::string& path,
                                          const SectionFormat& format);

  SectionFileWriter(SectionFileWriter&&) noexcept;
  SectionFileWriter& operator=(SectionFileWriter&&) noexcept;
  SectionFileWriter(const SectionFileWriter&) = delete;
  SectionFileWriter& operator=(const SectionFileWriter&) = delete;
  ~SectionFileWriter();

  /// Appends a section of exactly `bytes` payload bytes behind every earlier
  /// reservation and returns its sink (index = reservation order).
  /// Thread-safe. FailedPrecondition after Seal.
  Result<SectionSink> Reserve(
      uint64_t bytes, const std::array<uint64_t, kSectionCounts>& counts = {});

  /// Writes directory, header and trailer. Every reserved section must be
  /// finished. Call once; the fd stays open for mapping.
  Status Seal();

  /// Optionally fsyncs, then closes the fd (the destructor closes silently).
  Status Close(bool sync);

  int fd() const;
  /// The directory; stable once sealed.
  const std::vector<SectionRecord>& records() const;

 private:
  explicit SectionFileWriter(std::unique_ptr<SectionSink::Shared> shared);
  std::unique_ptr<SectionSink::Shared> shared_;
};

/// Read-only mapping of a sealed section file. Open checks the magic, the
/// version, the reserved-zero header and directory bytes, the exact size and
/// layout, the trailer and every section's CRC — one pass over the mapped
/// bytes, no copy — before any accessor can run. Refusals are IOError.
class SectionFile {
 public:
  static Result<SectionFile> Open(const std::string& path,
                                  const SectionFormat& format);

  const std::vector<SectionRecord>& records() const { return records_; }
  const SectionRecord& record(int32_t i) const {
    return records_[static_cast<size_t>(i)];
  }
  /// Section i's payload inside the mapping (page-aligned, so typed arrays
  /// are naturally aligned). Valid while this object lives; moving it keeps
  /// the mapping where it is.
  const unsigned char* data(int32_t i) const {
    return map_.bytes() + record(i).offset;
  }
  template <typename T>
  const T* As(int32_t i) const {
    return reinterpret_cast<const T*>(data(i));
  }

  /// IOError "invalid <format> file <path>: <why>" — the refusal every
  /// format-level check on top of this layer returns.
  Status Refuse(const std::string& why) const;

 private:
  std::string path_;
  std::string name_;
  util::MappedRegion map_;
  std::vector<SectionRecord> records_;
};

}  // namespace io
}  // namespace igepa

#endif  // IGEPA_IO_SECTION_FILE_H_
