#include "io/section_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cctype>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <utility>

#include "util/crc32.h"

namespace igepa {
namespace io {

static_assert(std::endian::native == std::endian::little,
              "section files store raw little-endian arrays");

namespace {

constexpr uint64_t kHeaderBytes = 64;
constexpr uint64_t kRecordBytes = 56;
constexpr uint64_t kTrailerBytes = 8;
/// "IGSF" little-endian behind the trailer CRC: a file cut mid-trailer fails
/// loudly instead of validating a torn CRC word.
constexpr uint32_t kEndMarker = 0x46534749;
constexpr size_t kSinkFlushBytes = 1u << 20;
/// Appends at least this large skip the buffer: catalog lanes and other
/// whole arrays go straight to the file without a transient copy.
constexpr size_t kDirectWriteBytes = 1u << 16;

const unsigned char kZeroPage[kSectionAlign] = {};

/// CRC of the header page: the 64 header bytes, then zeros to 4096.
uint32_t HeaderPageCrc(const unsigned char* head) {
  return Crc32Update(Crc32(head, kHeaderBytes), kZeroPage,
                     kSectionAlign - kHeaderBytes);
}

void EncodeRecord(const SectionRecord& r, unsigned char* p) {
  std::memset(p, 0, kRecordBytes);
  PutU64(p, r.offset);
  PutU64(p + 8, r.bytes);
  PutU32(p + 16, r.crc);
  for (int k = 0; k < kSectionCounts; ++k) PutU64(p + 24 + 8 * k, r.counts[k]);
}

bool AllZero(const unsigned char* p, size_t n) {
  return std::all_of(p, p + n, [](unsigned char c) { return c == 0; });
}

}  // namespace

void PutU32(void* p, uint32_t v) {
  auto* b = static_cast<unsigned char*>(p);
  b[0] = static_cast<unsigned char>(v);
  b[1] = static_cast<unsigned char>(v >> 8);
  b[2] = static_cast<unsigned char>(v >> 16);
  b[3] = static_cast<unsigned char>(v >> 24);
}

void PutU64(void* p, uint64_t v) {
  PutU32(p, static_cast<uint32_t>(v));
  PutU32(static_cast<unsigned char*>(p) + 4, static_cast<uint32_t>(v >> 32));
}

uint32_t GetU32(const void* p) {
  const auto* b = static_cast<const unsigned char*>(p);
  return static_cast<uint32_t>(b[0]) | (static_cast<uint32_t>(b[1]) << 8) |
         (static_cast<uint32_t>(b[2]) << 16) |
         (static_cast<uint32_t>(b[3]) << 24);
}

uint64_t GetU64(const void* p) {
  return static_cast<uint64_t>(GetU32(p)) |
         (static_cast<uint64_t>(
              GetU32(static_cast<const unsigned char*>(p) + 4))
          << 32);
}

Status WriteFully(int fd, const void* data, size_t size,
                  const std::string& path) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::write(fd, p, size);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("write failed on " + path + ": " +
                             std::strerror(errno));
    }
    p += n;
    size -= static_cast<size_t>(n);
  }
  return Status::OK();
}

Status WriteFullyAt(int fd, const void* data, size_t size, uint64_t offset,
                    const std::string& path) {
  const char* p = static_cast<const char*>(data);
  while (size > 0) {
    const ssize_t n = ::pwrite(fd, p, size, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("pwrite failed on " + path + ": " +
                             std::strerror(errno));
    }
    p += n;
    offset += static_cast<uint64_t>(n);
    size -= static_cast<size_t>(n);
  }
  return Status::OK();
}

uint64_t AlignToSection(uint64_t n) {
  return (n + kSectionAlign - 1) & ~(kSectionAlign - 1);
}

// ---- Writer -----------------------------------------------------------------

struct SectionSink::Shared {
  std::string path;
  SectionFormat format{};
  int fd = -1;
  /// Guards records, finished, next_offset and sealed: reservations and
  /// Finish calls may come from concurrent sinks.
  std::mutex mutex;
  std::vector<SectionRecord> records;
  std::vector<uint8_t> finished;
  uint64_t next_offset = kSectionAlign;
  bool sealed = false;

  ~Shared() {
    if (fd >= 0) ::close(fd);
  }
};

void SectionSink::Write(const void* data, size_t size) {
  if (!status_.ok() || size == 0) return;
  if (size > remaining_) {
    status_ = Status::FailedPrecondition(
        "section " + std::to_string(index_) + " of " + shared_->path +
        " overflows its reservation");
    return;
  }
  remaining_ -= size;
  crc_ = Crc32Update(crc_, data, size);
  const bool direct = size >= kDirectWriteBytes;
  if (direct || buf_.size() + size > kSinkFlushBytes) Flush();
  if (!status_.ok()) return;
  if (direct) {
    status_ = WriteFullyAt(shared_->fd, data, size, offset_, shared_->path);
    offset_ += size;
  } else {
    buf_.append(static_cast<const char*>(data), size);
  }
}

void SectionSink::WriteZeros(size_t size) {
  while (size > 0) {
    const size_t n = std::min<size_t>(size, sizeof(kZeroPage));
    Write(kZeroPage, n);
    size -= n;
  }
}

void SectionSink::Flush() {
  if (buf_.empty() || !status_.ok()) return;
  status_ = WriteFullyAt(shared_->fd, buf_.data(), buf_.size(), offset_,
                         shared_->path);
  offset_ += buf_.size();
  buf_.clear();
}

Status SectionSink::Finish() {
  if (shared_ == nullptr) return Status::FailedPrecondition("unreserved sink");
  Flush();
  if (status_.ok() && remaining_ != 0) {
    status_ = Status::FailedPrecondition(
        "section " + std::to_string(index_) + " of " + shared_->path +
        " is " + std::to_string(remaining_) + " bytes short");
  }
  if (!status_.ok()) return status_;
  std::lock_guard<std::mutex> lock(shared_->mutex);
  SectionRecord& record = shared_->records[static_cast<size_t>(index_)];
  // Nothing ever writes the padding up to the next page, so it reads back
  // as zeros (a file hole); chaining zeros here matches a reader that CRCs
  // the padded extent.
  record.crc = Crc32Update(crc_, kZeroPage,
                           AlignToSection(record.bytes) - record.bytes);
  shared_->finished[static_cast<size_t>(index_)] = 1;
  return Status::OK();
}

SectionFileWriter::SectionFileWriter(std::unique_ptr<SectionSink::Shared> s)
    : shared_(std::move(s)) {}
SectionFileWriter::SectionFileWriter(SectionFileWriter&&) noexcept = default;
SectionFileWriter& SectionFileWriter::operator=(SectionFileWriter&&) noexcept =
    default;
SectionFileWriter::~SectionFileWriter() = default;

Result<SectionFileWriter> SectionFileWriter::Create(
    const std::string& path, const SectionFormat& format) {
  auto shared = std::make_unique<SectionSink::Shared>();
  shared->path = path;
  shared->format = format;
  shared->fd = ::open(path.c_str(), O_RDWR | O_CREAT | O_TRUNC, 0644);
  if (shared->fd < 0) {
    return Status::IOError("cannot create " + path + ": " +
                           std::strerror(errno));
  }
  return SectionFileWriter(std::move(shared));
}

Result<SectionSink> SectionFileWriter::Reserve(
    uint64_t bytes, const std::array<uint64_t, kSectionCounts>& counts) {
  SectionSink sink;
  sink.shared_ = shared_.get();
  sink.remaining_ = bytes;
  std::lock_guard<std::mutex> lock(shared_->mutex);
  if (shared_->sealed) {
    return Status::FailedPrecondition("Reserve after Seal on " +
                                      shared_->path);
  }
  SectionRecord record;
  record.offset = shared_->next_offset;
  record.bytes = bytes;
  record.counts = counts;
  shared_->next_offset = AlignToSection(record.offset + bytes);
  sink.index_ = static_cast<int32_t>(shared_->records.size());
  sink.offset_ = record.offset;
  shared_->records.push_back(record);
  shared_->finished.push_back(0);
  return sink;
}

Status SectionFileWriter::Seal() {
  SectionSink::Shared& s = *shared_;
  std::lock_guard<std::mutex> lock(s.mutex);
  if (s.sealed) return Status::FailedPrecondition("Seal called twice");
  s.sealed = true;
  for (size_t i = 0; i < s.finished.size(); ++i) {
    if (s.finished[i] == 0) {
      return Status::FailedPrecondition("section " + std::to_string(i) +
                                        " of " + s.path + " never finished");
    }
  }
  const uint64_t dir_offset = s.next_offset;
  std::vector<unsigned char> tail(s.records.size() * kRecordBytes +
                                  kTrailerBytes);
  for (size_t i = 0; i < s.records.size(); ++i) {
    EncodeRecord(s.records[i], tail.data() + i * kRecordBytes);
  }
  unsigned char head[kHeaderBytes] = {};
  std::memcpy(head, s.format.magic, 8);
  PutU32(head + 8, s.format.version);
  PutU32(head + 12, static_cast<uint32_t>(s.records.size()));
  PutU64(head + 16, dir_offset);
  const size_t dir_bytes = tail.size() - kTrailerBytes;
  PutU32(tail.data() + dir_bytes,
         Crc32Update(HeaderPageCrc(head), tail.data(), dir_bytes));
  PutU32(tail.data() + dir_bytes + 4, kEndMarker);
  IGEPA_RETURN_IF_ERROR(
      WriteFullyAt(s.fd, tail.data(), tail.size(), dir_offset, s.path));
  return WriteFullyAt(s.fd, head, kHeaderBytes, 0, s.path);
}

Status SectionFileWriter::Close(bool sync) {
  SectionSink::Shared& s = *shared_;
  Status status;
  if (sync && ::fsync(s.fd) != 0) {
    status = Status::IOError("fsync failed on " + s.path + ": " +
                             std::strerror(errno));
  }
  if (::close(std::exchange(s.fd, -1)) != 0 && status.ok()) {
    status = Status::IOError("close failed on " + s.path + ": " +
                             std::strerror(errno));
  }
  return status;
}

int SectionFileWriter::fd() const { return shared_->fd; }

const std::vector<SectionRecord>& SectionFileWriter::records() const {
  return shared_->records;
}

// ---- Reader -----------------------------------------------------------------

Status SectionFile::Refuse(const std::string& why) const {
  return Status::IOError("invalid " + name_ + " file " + path_ + ": " + why);
}

Result<SectionFile> SectionFile::Open(const std::string& path,
                                      const SectionFormat& format) {
  SectionFile file;
  file.path_ = path;
  file.name_ = format.name;
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  struct stat st = {};
  if (::fstat(fd, &st) != 0) {
    const Status s = Status::IOError("fstat failed on " + path + ": " +
                                     std::strerror(errno));
    ::close(fd);
    return s;
  }
  auto mapped = util::MappedRegion::Map(fd, 0, static_cast<size_t>(st.st_size),
                                        path);
  ::close(fd);  // the mapping keeps its own reference
  IGEPA_ASSIGN_OR_RETURN(file.map_, std::move(mapped));
  const uint64_t size = file.map_.size();
  const unsigned char* base = file.map_.bytes();

  if (size < 12) return file.Refuse("too short (truncated)");
  if (std::memcmp(base, format.magic, 8) != 0) {
    // Quote what is there: a foreign or pre-framing file (the text
    // snapshot starts "igepa-snapshot,1") names itself.
    std::string found(reinterpret_cast<const char*>(base),
                      static_cast<size_t>(std::min<uint64_t>(size, 16)));
    for (char& c : found) {
      if (!std::isprint(static_cast<unsigned char>(c))) c = '.';
    }
    return file.Refuse("bad magic \"" + found + "\"");
  }
  const uint32_t version = GetU32(base + 8);
  if (version != format.version) {
    return file.Refuse("unsupported version " + std::to_string(version) +
                       " (this build reads version " +
                       std::to_string(format.version) + ")");
  }
  if (size < kSectionAlign + kTrailerBytes) {
    return file.Refuse("too short (truncated)");
  }
  if (!AllZero(base + 24, kSectionAlign - 24)) {
    return file.Refuse("nonzero reserved header bytes");
  }
  const uint64_t count = GetU32(base + 12);
  const uint64_t dir_offset = GetU64(base + 16);
  const uint64_t dir_bytes = count * kRecordBytes;
  if (dir_offset < kSectionAlign || dir_offset % kSectionAlign != 0 ||
      dir_offset > size || size - dir_offset != dir_bytes + kTrailerBytes) {
    return file.Refuse("size mismatch (truncated or trailing garbage)");
  }
  const unsigned char* dir = base + dir_offset;
  if (GetU32(dir + dir_bytes + 4) != kEndMarker) {
    return file.Refuse("missing trailer end marker");
  }
  if (Crc32Update(HeaderPageCrc(base), dir, dir_bytes) !=
      GetU32(dir + dir_bytes)) {
    return file.Refuse("directory CRC mismatch (tampered or torn write)");
  }

  // Sections tile [4096, dir_offset) in directory order; each CRC covers its
  // padded extent, so this loop is the single pass over the payload bytes.
  file.records_.resize(count);
  uint64_t expect = kSectionAlign;
  for (uint64_t i = 0; i < count; ++i) {
    const unsigned char* p = dir + i * kRecordBytes;
    SectionRecord& r = file.records_[i];
    r.offset = GetU64(p);
    r.bytes = GetU64(p + 8);
    r.crc = GetU32(p + 16);
    for (int k = 0; k < kSectionCounts; ++k) {
      r.counts[k] = GetU64(p + 24 + 8 * k);
    }
    const auto refuse = [&](const char* why) {
      return file.Refuse("section " + std::to_string(i) + why);
    };
    if (GetU32(p + 20) != 0) return refuse(" has nonzero reserved bytes");
    if (r.offset != expect || r.bytes > dir_offset - r.offset) {
      return refuse(" out of place");
    }
    expect = AlignToSection(r.offset + r.bytes);
    if (Crc32(base + r.offset, expect - r.offset) != r.crc) {
      return refuse(" CRC mismatch (tampered or torn write)");
    }
    if (!AllZero(base + r.offset + r.bytes, expect - r.offset - r.bytes)) {
      return refuse(" has nonzero padding");
    }
  }
  if (expect != dir_offset) return file.Refuse("gap before the directory");
  return file;
}

}  // namespace io
}  // namespace igepa
