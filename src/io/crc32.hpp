// CRC-32 (reflected, polynomial 0xEDB88320 — the zlib/PNG polynomial): the
// integrity check of every checkpoint section and every shardpack section.
//
// Two bodies compute the same function. The portable one is slicing-by-8:
// eight table lookups advance the CRC by eight input bytes. On x86 hosts
// with PCLMULQDQ, crc32_clmul.cpp (compiled with -mpclmul -msse4.1) takes
// the bulk of a buffer instead: it folds four 128-bit lanes by 64 bytes at
// a time with carry-less multiplies, folds them down to one lane, and
// finishes with a Barrett reduction; the table loop takes the last few
// bytes. The folded body runs only while the kernel backend
// (sparse/dispatch.hpp) is not scalar, so ISASGD_KERNEL_BACKEND=scalar and
// every non-x86 build keep the table loop. Both bodies return the same
// value for every input, so a file written under one reads under the other.
#pragma once

#include <cstddef>
#include <cstdint>

namespace isasgd::io {

/// CRC-32 of `size` bytes at `data`, continued from `seed` (pass a previous
/// return value to checksum discontiguous spans as one stream; 0 starts
/// fresh).
[[nodiscard]] std::uint32_t crc32(const void* data, std::size_t size,
                                  std::uint32_t seed = 0) noexcept;

/// True when crc32 runs the folded body: the CPU has PCLMULQDQ and SSE4.1,
/// the body was compiled in, and the active kernel backend is not scalar.
/// Follows sparse::kernels::set_backend().
[[nodiscard]] bool crc32_folded() noexcept;

namespace detail {

/// Shortest input the folded body takes: one 64-byte block.
inline constexpr std::size_t kCrcFoldMinBytes = 64;

/// compiled in && the CPU has PCLMULQDQ and SSE4.1 (crc32_clmul.cpp).
[[nodiscard]] bool crc32_fold_supported() noexcept;

/// The folded body over `size` bytes, `size` ≥ kCrcFoldMinBytes and a
/// multiple of 16. `state` is the running register (the CRC's complement,
/// as the table loop keeps it); returns the register after `size` bytes.
/// Only callable when crc32_fold_supported().
[[nodiscard]] std::uint32_t crc32_fold(const unsigned char* p,
                                       std::size_t size,
                                       std::uint32_t state) noexcept;

}  // namespace detail

}  // namespace isasgd::io
