#include "serve/delta_wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <utility>

#include "io/delta_io.h"
#include "io/section_file.h"
#include "util/crc32.h"

namespace igepa {
namespace serve {

namespace {

constexpr char kMagic[4] = {'I', 'G', 'W', 'L'};
/// A single epoch batch is bounded by queue_capacity single-mutation deltas;
/// anything near this is a corrupt length field, not a real record.
constexpr uint32_t kMaxPayload = 1u << 30;

Status ReadFile(const std::string& path, int fd, std::string* out) {
  out->clear();
  char buffer[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("read failed on " + path + ": " +
                             std::strerror(errno));
    }
    if (n == 0) return Status::OK();
    out->append(buffer, static_cast<size_t>(n));
  }
}

}  // namespace

Result<std::unique_ptr<DeltaWal>> DeltaWal::Open(
    const std::string& path, int32_t num_events, int32_t num_users,
    std::vector<WalRecord>* records_out) {
  records_out->clear();
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) {
    return Status::IOError("cannot open WAL " + path + ": " +
                           std::strerror(errno));
  }
  std::string data;
  if (Status s = ReadFile(path, fd, &data); !s.ok()) {
    ::close(fd);
    return s;
  }

  const auto* bytes = reinterpret_cast<const unsigned char*>(data.data());
  const size_t size = data.size();
  size_t offset = 0;       // start of the record being scanned
  size_t valid_end = 0;    // end of the last fully validated record
  int64_t last_epoch = -1;
  Status corrupt = Status::OK();
  while (offset < size) {
    auto bad = [&](const std::string& why) {
      return Status::IOError("corrupt WAL record at " + path + " offset " +
                             std::to_string(offset) + ": " + why);
    };
    if (offset + kHeaderSize > size) break;  // torn header
    if (std::memcmp(bytes + offset, kMagic, 4) != 0) {
      // An append tears by writing a PREFIX of one record, so a short file is
      // the only legitimate crash shape; wrong bytes under an intact length
      // mean damage, not a tear.
      corrupt = bad("bad magic");
      break;
    }
    const uint32_t payload_len = io::GetU32(bytes + offset + 4);
    const int64_t epoch = static_cast<int64_t>(io::GetU64(bytes + offset + 8));
    const uint32_t coalesced = io::GetU32(bytes + offset + 16);
    const uint32_t stored_crc = io::GetU32(bytes + offset + 20);
    if (payload_len > kMaxPayload) {
      corrupt = bad("implausible payload length " +
                    std::to_string(payload_len));
      break;
    }
    const size_t record_end = offset + kHeaderSize + payload_len;
    if (record_end > size) break;  // torn payload
    uint32_t crc = Crc32(bytes + offset + 4, 16);
    crc = Crc32Update(crc, bytes + offset + kHeaderSize, payload_len);
    if (crc != stored_crc) {
      if (record_end == size) break;  // corrupt FINAL record: a tail, drop it
      corrupt = bad("CRC mismatch with intact records behind it");
      break;
    }
    if (epoch <= last_epoch) {
      corrupt = bad("non-monotonic epoch " + std::to_string(epoch));
      break;
    }
    const std::string payload(data, offset + kHeaderSize, payload_len);
    std::istringstream payload_in(payload);
    auto ticks = io::ReadDeltaStreamCsv(payload_in, path + "[record " +
                                                        std::to_string(epoch) +
                                                        "]");
    if (!ticks.ok() || ticks->size() != 1) {
      corrupt = bad(ticks.ok() ? "payload is not a single-tick delta stream"
                               : ticks.status().message());
      break;
    }
    WalRecord record;
    record.epoch = epoch;
    record.coalesced = static_cast<int32_t>(coalesced);
    record.batch = std::move((*ticks)[0]);
    records_out->push_back(std::move(record));
    last_epoch = epoch;
    offset = record_end;
    valid_end = record_end;
  }
  if (!corrupt.ok()) {
    ::close(fd);
    records_out->clear();
    return corrupt;
  }
  if (valid_end < size) {
    // Torn tail: drop the partial record so the next Append starts clean.
    if (::ftruncate(fd, static_cast<off_t>(valid_end)) != 0 ||
        ::fsync(fd) != 0) {
      const Status s = Status::IOError("cannot truncate torn WAL tail of " +
                                       path + ": " + std::strerror(errno));
      ::close(fd);
      return s;
    }
  }
  if (::lseek(fd, static_cast<off_t>(valid_end), SEEK_SET) < 0) {
    const Status s =
        Status::IOError("cannot seek WAL " + path + ": " +
                        std::strerror(errno));
    ::close(fd);
    return s;
  }
  return std::unique_ptr<DeltaWal>(
      new DeltaWal(path, fd, static_cast<int64_t>(valid_end), num_events,
                   num_users));
}

DeltaWal::~DeltaWal() {
  if (fd_ >= 0) ::close(fd_);
}

Status DeltaWal::Append(int64_t epoch, int32_t coalesced,
                        const core::InstanceDelta& batch, bool sync) {
  std::ostringstream payload_out;
  IGEPA_RETURN_IF_ERROR(io::WriteDeltaStreamCsv(
      {batch}, num_events_, num_users_, payload_out, path_));
  const std::string payload = payload_out.str();

  std::string record(kHeaderSize + payload.size(), '\0');
  auto* header = reinterpret_cast<unsigned char*>(record.data());
  std::memcpy(header, kMagic, 4);
  io::PutU32(header + 4, static_cast<uint32_t>(payload.size()));
  io::PutU64(header + 8, static_cast<uint64_t>(epoch));
  io::PutU32(header + 16, static_cast<uint32_t>(coalesced));
  uint32_t crc = Crc32(header + 4, 16);
  crc = Crc32Update(crc, payload.data(), payload.size());
  io::PutU32(header + 20, crc);
  std::memcpy(record.data() + kHeaderSize, payload.data(), payload.size());

  IGEPA_RETURN_IF_ERROR(
      io::WriteFully(fd_, record.data(), record.size(), path_));
  if (sync && ::fsync(fd_) != 0) {
    return Status::IOError("fsync failed on " + path_ + ": " +
                           std::strerror(errno));
  }
  size_bytes_ += static_cast<int64_t>(record.size());
  return Status::OK();
}

Status DeltaWal::Sync() {
  if (::fsync(fd_) != 0) {
    return Status::IOError("fsync failed on " + path_ + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

Status DeltaWal::Reset() {
  if (::ftruncate(fd_, 0) != 0 || ::lseek(fd_, 0, SEEK_SET) < 0 ||
      ::fsync(fd_) != 0) {
    return Status::IOError("cannot reset WAL " + path_ + ": " +
                           std::strerror(errno));
  }
  size_bytes_ = 0;
  return Status::OK();
}

}  // namespace serve
}  // namespace igepa
