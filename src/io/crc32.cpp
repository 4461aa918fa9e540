#include "io/crc32.hpp"

#include <array>
#include <bit>
#include <cstring>

#include "sparse/dispatch.hpp"

namespace isasgd::io {

namespace {

/// Slicing-by-8 tables for the reflected CRC-32: tables[0] is the classic
/// bytewise table, and tables[k][b] is the CRC contribution of byte b
/// followed by k zero bytes, so eight lookups advance the CRC by eight
/// input bytes at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 8; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = make_crc_tables();

/// The portable body: advances the register `c` over `size` bytes.
std::uint32_t crc32_table(const unsigned char* p, std::size_t size,
                          std::uint32_t c) noexcept {
  const CrcTables& t = kCrcTables;
  // Eight bytes per step as two little-endian words; big-endian hosts and
  // the tail take the bytewise loop, which computes the same function.
  if constexpr (std::endian::native == std::endian::little) {
    for (; size >= 8; p += 8, size -= 8) {
      std::uint32_t lo;
      std::uint32_t hi;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      lo ^= c;
      c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^
          t[5][(lo >> 16) & 0xFF] ^ t[4][lo >> 24] ^ t[3][hi & 0xFF] ^
          t[2][(hi >> 8) & 0xFF] ^ t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
    }
  }
  for (; size > 0; ++p, --size) c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return c;
}

}  // namespace

bool crc32_folded() noexcept {
  static const bool supported = detail::crc32_fold_supported();
  return supported && sparse::kernels::active_backend() !=
                          sparse::kernels::Backend::kScalar;
}

std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  if (size >= detail::kCrcFoldMinBytes && crc32_folded()) {
    // The folded body takes whole 16-byte blocks; the table loop the rest.
    const std::size_t bulk = size & ~std::size_t{15};
    c = detail::crc32_fold(p, bulk, c);
    p += bulk;
    size -= bulk;
  }
  return crc32_table(p, size, c) ^ 0xFFFFFFFFu;
}

}  // namespace isasgd::io
