// The folded CRC-32 body: carry-less multiplies (PCLMULQDQ) instead of
// table lookups, after Gopal et al., "Fast CRC Computation for Generic
// Polynomials Using PCLMULQDQ Instruction" (Intel, 2009). CMake compiles
// this file with -mpclmul -msse4.1 and defines ISASGD_TU_CLMUL only when
// the target is x86 and the compiler accepts the flags; elsewhere it
// compiles to a stub that reports the body unsupported.
#include "io/crc32.hpp"

#if defined(ISASGD_TU_CLMUL)

#include <immintrin.h>

namespace isasgd::io::detail {

namespace {

// Folding constants for the bit-reflected polynomial 0x1DB710641, each the
// reflected residue x^(d±32) mod P shifted left by one, where d is the
// distance a fold moves bits: (lo, hi) multiplies a lane's low and high
// 64 bits.
constexpr long long kFold512Lo = 0x0154442bd4;  // four lanes, 512 bits on
constexpr long long kFold512Hi = 0x01c6e41596;
constexpr long long kFold128Lo = 0x01751997d0;  // one lane, 128 bits on
constexpr long long kFold128Hi = 0x00ccaa009e;
constexpr long long kFold64 = 0x0163cd6124;     // 96 → 64 bits
constexpr long long kPoly = 0x01db710641;       // P, reflected
constexpr long long kMu = 0x01f7011641;         // ⌊x^64 / P⌋, reflected

/// a·k over GF(2) for one fold: the low halves' product xor the high
/// halves' product, which moves `a` the fold distance ahead.
inline __m128i fold(__m128i a, __m128i k) {
  return _mm_xor_si128(_mm_clmulepi64_si128(a, k, 0x00),
                       _mm_clmulepi64_si128(a, k, 0x11));
}

inline __m128i load(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

}  // namespace

bool crc32_fold_supported() noexcept {
  return __builtin_cpu_supports("pclmul") != 0 &&
         __builtin_cpu_supports("sse4.1") != 0;
}

std::uint32_t crc32_fold(const unsigned char* p, std::size_t size,
                         std::uint32_t state) noexcept {
  // Four lanes of 16 bytes; the running register enters at the lowest
  // 32 bits, where the table loop would have xored it into the next bytes.
  __m128i x0 = _mm_xor_si128(load(p),
                             _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x1 = load(p + 16);
  __m128i x2 = load(p + 32);
  __m128i x3 = load(p + 48);
  p += 64;
  size -= 64;

  // Each lane folds 512 bits ahead onto the next block's matching lane.
  const __m128i k512 = _mm_set_epi64x(kFold512Hi, kFold512Lo);
  for (; size >= 64; p += 64, size -= 64) {
    x0 = _mm_xor_si128(fold(x0, k512), load(p));
    x1 = _mm_xor_si128(fold(x1, k512), load(p + 16));
    x2 = _mm_xor_si128(fold(x2, k512), load(p + 32));
    x3 = _mm_xor_si128(fold(x3, k512), load(p + 48));
  }

  // Down to one lane, then the remaining 16-byte blocks one at a time.
  const __m128i k128 = _mm_set_epi64x(kFold128Hi, kFold128Lo);
  x0 = _mm_xor_si128(fold(x0, k128), x1);
  x0 = _mm_xor_si128(fold(x0, k128), x2);
  x0 = _mm_xor_si128(fold(x0, k128), x3);
  for (; size >= 16; p += 16, size -= 16) {
    x0 = _mm_xor_si128(fold(x0, k128), load(p));
  }

  // Down to 64 bits in two folds: the low 64 bits onto the high 64
  // (128 → 96 bits), then the low 32 bits onto the rest (96 → 64).
  const __m128i low32 = _mm_setr_epi32(~0, 0, ~0, 0);
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8),
                     _mm_clmulepi64_si128(x0, k128, 0x10));
  x0 = _mm_xor_si128(
      _mm_srli_si128(x0, 4),
      _mm_clmulepi64_si128(_mm_and_si128(x0, low32),
                           _mm_set_epi64x(0, kFold64), 0x00));

  // Barrett reduction of the 64-bit remainder to 32 bits:
  // t = (r_lo · μ)_lo, r ^= t_lo · P; the CRC is then bits 32..63.
  const __m128i poly_mu = _mm_set_epi64x(kMu, kPoly);
  __m128i t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), poly_mu, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), poly_mu, 0x00);
  x0 = _mm_xor_si128(x0, t);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x0, 1));
}

}  // namespace isasgd::io::detail

#else  // !ISASGD_TU_CLMUL

namespace isasgd::io::detail {

bool crc32_fold_supported() noexcept { return false; }

std::uint32_t crc32_fold(const unsigned char*, std::size_t,
                         std::uint32_t state) noexcept {
  return state;  // never called: crc32_fold_supported() is false
}

}  // namespace isasgd::io::detail

#endif  // ISASGD_TU_CLMUL
