#include "util/crc32.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string_view>
#include <vector>

#include "util/rng.h"

namespace igepa {
namespace {

/// The textbook bitwise CRC-32 (reflected 0xEDB88320), one bit at a time —
/// the reference the table-driven implementation must reproduce.
uint32_t BitwiseCrc32(const unsigned char* data, size_t size) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) ? (0xEDB88320u ^ (crc >> 1)) : (crc >> 1);
    }
  }
  return ~crc;
}

std::vector<unsigned char> RandomBytes(size_t size, uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> bytes(size);
  for (unsigned char& b : bytes) {
    b = static_cast<unsigned char>(rng.UniformInt(0, 255));
  }
  return bytes;
}

TEST(Crc32Test, CheckValueOfTheStandardTestVector) {
  EXPECT_EQ(Crc32(std::string_view("123456789")), 0xCBF43926u);
  EXPECT_EQ(Crc32(std::string_view("")), 0u);
}

TEST(Crc32Test, SmallSizesMatchTheBitwiseReference) {
  const std::vector<unsigned char> bytes = RandomBytes(17, 1);
  for (size_t size = 0; size <= 17; ++size) {
    EXPECT_EQ(Crc32(bytes.data(), size), BitwiseCrc32(bytes.data(), size))
        << "size=" << size;
  }
}

TEST(Crc32Test, ChainingEqualsOneShotAtEverySplitPoint) {
  const std::vector<unsigned char> bytes = RandomBytes(203, 2);
  const uint32_t whole = Crc32(bytes.data(), bytes.size());
  EXPECT_EQ(whole, BitwiseCrc32(bytes.data(), bytes.size()));
  for (size_t split = 0; split <= bytes.size(); ++split) {
    const uint32_t head = Crc32Update(0, bytes.data(), split);
    EXPECT_EQ(Crc32Update(head, bytes.data() + split, bytes.size() - split),
              whole)
        << "split=" << split;
  }
}

TEST(Crc32Test, UnalignedStartOffsetsMatchAnAlignedCopy) {
  const std::vector<unsigned char> bytes = RandomBytes(96 + 8, 3);
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t size : {size_t{0}, size_t{7}, size_t{8}, size_t{9},
                        size_t{64}, size_t{96}}) {
      std::vector<unsigned char> aligned(bytes.begin() + offset,
                                         bytes.begin() + offset + size);
      EXPECT_EQ(Crc32(bytes.data() + offset, size),
                BitwiseCrc32(aligned.data(), aligned.size()))
          << "offset=" << offset << " size=" << size;
    }
  }
}

TEST(Crc32Test, OneMebibyteMatchesTheBitwiseReference) {
  const std::vector<unsigned char> bytes = RandomBytes(size_t{1} << 20, 4);
  EXPECT_EQ(Crc32(bytes.data(), bytes.size()),
            BitwiseCrc32(bytes.data(), bytes.size()));
}

}  // namespace
}  // namespace igepa
