#pragma once
/// \file crc32.hpp
/// CRC-32 (IEEE 802.3: reflected, polynomial 0xEDB88320, init/final-xor
/// 0xFFFFFFFF), shared by the accelerator's SPM tile check, the host-side
/// workload staging that precomputes expected values, and the tests.
/// Table-driven: one 256-entry lookup per byte, and slice-by-8 (eight
/// tables, eight bytes per step) over contiguous buffers, since checked
/// offloads CRC every weight and input tile they move.

#include <array>
#include <cstddef>
#include <cstdint>

namespace aspen::sys {

inline constexpr std::uint32_t kCrc32Init = 0xFFFFFFFFu;
inline constexpr std::uint32_t kCrc32FinalXor = 0xFFFFFFFFu;

namespace detail {
using Crc32Tables = std::array<std::array<std::uint32_t, 256>, 8>;

/// tables[0][b] is the CRC register after folding byte b into zero;
/// tables[k][b] advances tables[k-1][b] by one more zero byte, so that
/// slice-by-8 can fold eight bytes with eight independent lookups.
constexpr Crc32Tables make_crc32_tables() {
  Crc32Tables t{};
  for (std::uint32_t b = 0; b < 256; ++b) {
    std::uint32_t crc = b;
    for (int k = 0; k < 8; ++k)
      crc = (crc >> 1) ^ (0xEDB88320u & (0u - (crc & 1u)));
    t[0][b] = crc;
  }
  for (std::size_t k = 1; k < 8; ++k)
    for (std::size_t b = 0; b < 256; ++b)
      t[k][b] = (t[k - 1][b] >> 8) ^ t[0][t[k - 1][b] & 0xFFu];
  return t;
}

inline constexpr Crc32Tables kCrc32Tables = make_crc32_tables();
}  // namespace detail

/// Fold one byte into the (un-finalized) CRC register.
inline std::uint32_t crc32_byte(std::uint32_t crc, std::uint8_t b) {
  return (crc >> 8) ^ detail::kCrc32Tables[0][(crc ^ b) & 0xFFu];
}

/// Fold one little-endian 16-bit value (the Q3.12 SPM element order).
inline std::uint32_t crc32_le16(std::uint32_t crc, std::uint16_t v) {
  crc = crc32_byte(crc, static_cast<std::uint8_t>(v & 0xFFu));
  return crc32_byte(crc, static_cast<std::uint8_t>(v >> 8));
}

/// Fold a byte buffer into the (un-finalized) CRC register, slice-by-8.
inline std::uint32_t crc32_update(std::uint32_t crc, const void* data,
                                  std::size_t n) {
  const auto& t = detail::kCrc32Tables;
  const auto* p = static_cast<const std::uint8_t*>(data);
  for (; n >= 8; n -= 8, p += 8) {
    // Byte-wise little-endian assembly: alignment- and host-order-free.
    const std::uint32_t lo =
        crc ^ (static_cast<std::uint32_t>(p[0]) |
               static_cast<std::uint32_t>(p[1]) << 8 |
               static_cast<std::uint32_t>(p[2]) << 16 |
               static_cast<std::uint32_t>(p[3]) << 24);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][p[4]] ^
          t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
  }
  while (n-- > 0) crc = crc32_byte(crc, *p++);
  return crc;
}

/// One-shot CRC over a byte buffer.
inline std::uint32_t crc32(const void* data, std::size_t n) {
  return crc32_update(kCrc32Init, data, n) ^ kCrc32FinalXor;
}

}  // namespace aspen::sys
