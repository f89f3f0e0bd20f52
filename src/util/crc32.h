#ifndef IGEPA_UTIL_CRC32_H_
#define IGEPA_UTIL_CRC32_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace igepa {

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the checksum
/// framing the serve WAL records and snapshot files, the binary instance and
/// the catalog spill (docs/FORMATS.md). Table driven, eight bytes per step
/// (slice-by-8) with a byte-at-a-time tail; unlike hardware CRC32C it is
/// identical on every platform the tests run on.
///
/// `Crc32Update` chains: feed it the previous return value to extend a
/// checksum over multiple buffers. `Crc32` is the one-shot convenience over a
/// whole buffer (equivalent to Crc32Update(0, ...)).
uint32_t Crc32Update(uint32_t crc, const void* data, size_t size);

inline uint32_t Crc32(const void* data, size_t size) {
  return Crc32Update(0, data, size);
}

inline uint32_t Crc32(std::string_view text) {
  return Crc32(text.data(), text.size());
}

}  // namespace igepa

#endif  // IGEPA_UTIL_CRC32_H_
