#include "serve/checkpoint.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <bit>
#include <cerrno>
#include <cstring>

#include "io/binary_instance.h"
#include "io/section_file.h"

namespace igepa {
namespace serve {
namespace {

constexpr char kSnapshotFile[] = "snapshot.igs";
constexpr char kTmpFile[] = "snapshot.tmp";
constexpr char kWalFile[] = "wal.log";

/// Version 1 was the line-oriented text snapshot; its "igepa-snapshot,1"
/// prefix is refused as a bad magic that names it.
constexpr io::SectionFormat kFormat{"igepasnp", 2, "igepa-snapshot,2"};

/// Section order: the scalar block, the nine state vectors, then the
/// instance sections (dense interest).
enum SnapshotSection : int32_t {
  kScalars,  // u64[11]: next_epoch, next_version, deltas_applied, rng[4],
             // lp_status, lp_objective, lp_upper_bound, lp_iterations
  kMu,
  kChoice,
  kChoiceValue,
  kStale,
  kSampledCol,
  kDemand,
  kCutoff,
  kX,
  kDuals,
  kInstance,
};
constexpr int kNumScalars = 11;

template <typename T>
Status WriteVector(io::SectionFileWriter* file, const std::vector<T>& values) {
  IGEPA_ASSIGN_OR_RETURN(io::SectionSink sink,
                         file->Reserve(values.size() * sizeof(T)));
  sink.Write(values.data(), values.size() * sizeof(T));
  return sink.Finish();
}

template <typename T>
Status ReadVector(const io::SectionFile& file, int32_t section,
                  std::vector<T>* out) {
  const uint64_t bytes = file.record(section).bytes;
  if (bytes % sizeof(T) != 0) {
    return file.Refuse("state section " + std::to_string(section) +
                       " is not a whole number of elements");
  }
  const T* values = file.As<T>(section);  // page-aligned
  out->assign(values, values + bytes / sizeof(T));
  return Status::OK();
}

Status WriteSnapshotFile(const std::string& path,
                         const EngineSnapshot& snapshot) {
  IGEPA_ASSIGN_OR_RETURN(io::SectionFileWriter file,
                         io::SectionFileWriter::Create(path, kFormat));
  {
    IGEPA_ASSIGN_OR_RETURN(io::SectionSink sink,
                           file.Reserve(kNumScalars * sizeof(uint64_t)));
    sink.WriteValue(snapshot.next_epoch);
    sink.WriteValue(snapshot.next_version);
    sink.WriteValue(snapshot.deltas_applied);
    for (uint64_t word : snapshot.rng_state) sink.WriteValue(word);
    sink.WriteValue(int64_t{snapshot.lp_status});
    sink.WriteValue(snapshot.lp_objective);
    sink.WriteValue(snapshot.lp_upper_bound);
    sink.WriteValue(snapshot.lp_iterations);
    IGEPA_RETURN_IF_ERROR(sink.Finish());
  }
  IGEPA_RETURN_IF_ERROR(WriteVector(&file, snapshot.mu));
  IGEPA_RETURN_IF_ERROR(WriteVector(&file, snapshot.choice));
  IGEPA_RETURN_IF_ERROR(WriteVector(&file, snapshot.choice_value));
  IGEPA_RETURN_IF_ERROR(WriteVector(&file, snapshot.stale));
  IGEPA_RETURN_IF_ERROR(WriteVector(&file, snapshot.sampled_col));
  IGEPA_RETURN_IF_ERROR(WriteVector(&file, snapshot.demand));
  IGEPA_RETURN_IF_ERROR(WriteVector(&file, snapshot.cutoff));
  IGEPA_RETURN_IF_ERROR(WriteVector(&file, snapshot.x));
  IGEPA_RETURN_IF_ERROR(WriteVector(&file, snapshot.duals));
  IGEPA_RETURN_IF_ERROR(io::AppendInstanceSections(
      *snapshot.instance, /*dense_interest=*/true, &file));
  IGEPA_RETURN_IF_ERROR(file.Seal());
  return file.Close(/*sync=*/true);
}

Status FsyncDirectory(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("cannot open directory " + dir + ": " +
                           std::strerror(errno));
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::IOError("fsync failed on directory " + dir + ": " +
                           std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace

std::string Checkpointer::SnapshotPath(const std::string& dir) {
  return dir + "/" + kSnapshotFile;
}

std::string Checkpointer::WalPath(const std::string& dir) {
  return dir + "/" + kWalFile;
}

Status Checkpointer::EnsureDirectory(const std::string& dir) {
  if (dir.empty()) {
    return Status::InvalidArgument("empty durable directory path");
  }
  // Create each prefix in turn (mkdir -p): the durable dir is commonly a
  // fresh nested path under a test or CI workspace.
  for (size_t i = 1; i <= dir.size(); ++i) {
    if (i < dir.size() && dir[i] != '/') continue;
    const std::string prefix = dir.substr(0, i);
    if (prefix.empty() || prefix == "/") continue;
    if (::mkdir(prefix.c_str(), 0755) != 0 && errno != EEXIST) {
      return Status::IOError("cannot create directory " + prefix + ": " +
                             std::strerror(errno));
    }
  }
  return Status::OK();
}

Status Checkpointer::Write(const std::string& dir,
                           const EngineSnapshot& snapshot) {
  if (!snapshot.instance.has_value()) {
    return Status::InvalidArgument("snapshot has no instance");
  }
  const std::string path = SnapshotPath(dir);
  const std::string tmp_path = dir + "/" + kTmpFile;
  // Written and fsynced under the tmp name, then renamed over the old one.
  if (Status s = WriteSnapshotFile(tmp_path, snapshot); !s.ok()) {
    ::unlink(tmp_path.c_str());
    return s;
  }
  if (::rename(tmp_path.c_str(), path.c_str()) != 0) {
    const Status s = Status::IOError("cannot rename " + tmp_path + " to " +
                                     path + ": " + std::strerror(errno));
    ::unlink(tmp_path.c_str());
    return s;
  }
  // The rename itself must be durable before the caller truncates the WAL,
  // or a crash could leave the old snapshot paired with an emptied log.
  return FsyncDirectory(dir);
}

Result<EngineSnapshot> Checkpointer::Load(const std::string& dir) {
  const std::string path = SnapshotPath(dir);
  if (::access(path.c_str(), F_OK) != 0) {
    return Status::NotFound("no snapshot at " + path);
  }
  IGEPA_ASSIGN_OR_RETURN(const io::SectionFile file,
                         io::SectionFile::Open(path, kFormat));
  if (file.records().size() != kInstance + io::kInstanceSections) {
    return file.Refuse("unexpected section count");
  }
  if (file.record(kScalars).bytes != kNumScalars * sizeof(uint64_t)) {
    return file.Refuse("bad scalar section");
  }
  EngineSnapshot snapshot;
  const unsigned char* p = file.data(kScalars);
  const auto scalar = [p](int i) { return io::GetU64(p + 8 * i); };
  snapshot.next_epoch = static_cast<int64_t>(scalar(0));
  snapshot.next_version = static_cast<int64_t>(scalar(1));
  snapshot.deltas_applied = static_cast<int64_t>(scalar(2));
  for (int i = 0; i < 4; ++i) snapshot.rng_state[i] = scalar(3 + i);
  const auto lp_status = static_cast<int64_t>(scalar(7));
  snapshot.lp_objective = std::bit_cast<double>(scalar(8));
  snapshot.lp_upper_bound = std::bit_cast<double>(scalar(9));
  snapshot.lp_iterations = static_cast<int64_t>(scalar(10));
  if (snapshot.next_epoch < 0 || snapshot.next_version < 1 ||
      snapshot.deltas_applied < 0 ||
      static_cast<int32_t>(lp_status) != lp_status) {
    return file.Refuse("bad counters");
  }
  snapshot.lp_status = static_cast<int32_t>(lp_status);

  IGEPA_RETURN_IF_ERROR(ReadVector(file, kMu, &snapshot.mu));
  IGEPA_RETURN_IF_ERROR(ReadVector(file, kChoice, &snapshot.choice));
  IGEPA_RETURN_IF_ERROR(
      ReadVector(file, kChoiceValue, &snapshot.choice_value));
  IGEPA_RETURN_IF_ERROR(ReadVector(file, kStale, &snapshot.stale));
  IGEPA_RETURN_IF_ERROR(ReadVector(file, kSampledCol, &snapshot.sampled_col));
  IGEPA_RETURN_IF_ERROR(ReadVector(file, kDemand, &snapshot.demand));
  IGEPA_RETURN_IF_ERROR(ReadVector(file, kCutoff, &snapshot.cutoff));
  IGEPA_RETURN_IF_ERROR(ReadVector(file, kX, &snapshot.x));
  IGEPA_RETURN_IF_ERROR(ReadVector(file, kDuals, &snapshot.duals));
  IGEPA_ASSIGN_OR_RETURN(snapshot.instance,
                         io::ReadInstanceSections(file, kInstance));
  return snapshot;
}

}  // namespace serve
}  // namespace igepa
