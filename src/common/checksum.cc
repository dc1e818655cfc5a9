#include "common/checksum.h"

#include <array>
#include <cstddef>

#include "common/checksum_internal.h"

// The carry-less-multiply kernel is compiled for the functions that need it
// (a target attribute), not for the file, so the default flags keep building
// a binary that runs anywhere; the CPU is asked once at run time.
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define HPA_CRC32_CLMUL 1
#include <immintrin.h>
#endif

namespace hpa {

namespace {

/// Slicing-by-8 tables for the reflected IEEE polynomial, built once at
/// startup. Row 0 is the classic bytewise table; row j advances a byte's
/// contribution by j further zero bytes, so eight table lookups fold eight
/// input bytes per step.
using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

CrcTables BuildCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t j = 1; j < 8; ++j) {
      t[j][i] = (t[j - 1][i] >> 8) ^ t[0][t[j - 1][i] & 0xFFu];
    }
  }
  return t;
}

const CrcTables& Tables() {
  static const CrcTables tables = BuildCrcTables();
  return tables;
}

/// Advances the CRC register `c` (the inverted running value) over
/// p[0, len) eight bytes per step, then bytewise.
uint32_t SliceBy8(const unsigned char* p, size_t len, uint32_t c) {
  const CrcTables& t = Tables();
  // Bytes are assembled explicitly (little-endian order), so the result
  // does not depend on host byte order or pointer alignment.
  while (len >= 8) {
    const uint32_t lo = c ^ (static_cast<uint32_t>(p[0]) |
                             static_cast<uint32_t>(p[1]) << 8 |
                             static_cast<uint32_t>(p[2]) << 16 |
                             static_cast<uint32_t>(p[3]) << 24);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][p[4]] ^
        t[2][p[5]] ^ t[1][p[6]] ^ t[0][p[7]];
    p += 8;
    len -= 8;
  }
  while (len-- > 0) c = t[0][(c ^ *p++) & 0xFFu] ^ (c >> 8);
  return c;
}

#ifdef HPA_CRC32_CLMUL

/// Inputs at least this long take the folding kernel, which starts by
/// loading four 16-byte lanes.
constexpr size_t kClmulMinBytes = 64;

#define HPA_CLMUL_TARGET __attribute__((target("pclmul,sse4.1")))

HPA_CLMUL_TARGET inline __m128i Load128(const unsigned char* p) {
  return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
}

/// Folds `acc` forward by the distance whose two constants `k` holds and
/// adds `next`: acc.lo * k.lo ^ acc.hi * k.hi ^ next.
HPA_CLMUL_TARGET inline __m128i Fold(__m128i acc, __m128i k, __m128i next) {
  return _mm_xor_si128(_mm_xor_si128(_mm_clmulepi64_si128(acc, k, 0x00),
                                     _mm_clmulepi64_si128(acc, k, 0x11)),
                       next);
}

/// Advances the CRC register `c` over p[0, len), `len` a multiple of 16 and
/// at least kClmulMinBytes, by carry-less multiplication (Intel, "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ", 2009, for the
/// reflected polynomial). Four 128-bit lanes each fold 64 bytes ahead per
/// step; the lanes then fold into one, which takes the remaining 16-byte
/// blocks, and a Barrett reduction brings the 128-bit remainder to 32 bits.
/// Each constant is x^d mod P, bit-reflected, for the fold distance d.
HPA_CLMUL_TARGET uint32_t FoldClmul(const unsigned char* p, size_t len,
                                    uint32_t c) {
  // Low x^(512+32), high x^(512-32): a 64-byte step across the lanes.
  const __m128i k_512 = _mm_set_epi64x(0x1c6e41596, 0x154442bd4);
  // Low x^(128+32), high x^(128-32): a 16-byte step within one lane.
  const __m128i k_128 = _mm_set_epi64x(0x0ccaa009e, 0x1751997d0);
  // x^64, for the last fold before the reduction.
  const __m128i k_64 = _mm_set_epi64x(0, 0x163cd6124);
  // Barrett: P(x) with its x^32 term (low) and floor(x^64 / P(x)) (high).
  const __m128i barrett = _mm_set_epi64x(0x1f7011641, 0x1db710641);
  const __m128i low32 = _mm_set_epi32(0, -1, 0, -1);

  __m128i a = _mm_xor_si128(Load128(p), _mm_cvtsi32_si128(static_cast<int>(c)));
  __m128i b = Load128(p + 16);
  __m128i d = Load128(p + 32);
  __m128i e = Load128(p + 48);
  p += 64;
  len -= 64;
  for (; len >= 64; p += 64, len -= 64) {
    a = Fold(a, k_512, Load128(p));
    b = Fold(b, k_512, Load128(p + 16));
    d = Fold(d, k_512, Load128(p + 32));
    e = Fold(e, k_512, Load128(p + 48));
  }
  a = Fold(a, k_128, b);
  a = Fold(a, k_128, d);
  a = Fold(a, k_128, e);
  for (; len >= 16; p += 16, len -= 16) a = Fold(a, k_128, Load128(p));

  // 128 -> 96 bits: the low half, times x^(128-32), onto the high half.
  a = _mm_xor_si128(_mm_srli_si128(a, 8), _mm_clmulepi64_si128(a, k_128, 0x10));
  // 96 -> 64 bits: the low 32, times x^64, onto the other 64.
  a = _mm_xor_si128(_mm_srli_si128(a, 4),
                    _mm_clmulepi64_si128(_mm_and_si128(a, low32), k_64, 0x00));
  // Barrett reduction: q = (a.lo32 * mu).lo32; the CRC is bits 32..63 of
  // a ^ q * P.
  __m128i q = _mm_clmulepi64_si128(_mm_and_si128(a, low32), barrett, 0x10);
  q = _mm_clmulepi64_si128(_mm_and_si128(q, low32), barrett, 0x00);
  return static_cast<uint32_t>(_mm_extract_epi32(_mm_xor_si128(a, q), 1));
}

#undef HPA_CLMUL_TARGET

/// Whether this CPU runs FoldClmul; asked once.
bool HasClmul() {
  static const bool has = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  }();
  return has;
}

#endif  // HPA_CRC32_CLMUL

}  // namespace

namespace crc_internal {

uint32_t Crc32SliceBy8(std::string_view data, uint32_t crc) {
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  return SliceBy8(p, data.size(), crc ^ 0xFFFFFFFFu) ^ 0xFFFFFFFFu;
}

}  // namespace crc_internal

uint32_t Crc32(std::string_view data, uint32_t crc) {
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t len = data.size();
  uint32_t c = crc ^ 0xFFFFFFFFu;
#ifdef HPA_CRC32_CLMUL
  if (len >= kClmulMinBytes && HasClmul()) {
    // The kernel takes whole 16-byte blocks; the table loop the rest.
    const size_t folded = len & ~size_t{15};
    c = FoldClmul(p, folded, c);
    p += folded;
    len -= folded;
  }
#endif
  return SliceBy8(p, len, c) ^ 0xFFFFFFFFu;
}

uint64_t StableHash64(std::string_view data, uint64_t seed) {
  // FNV-1a with the seed folded into the offset basis, then finalized with
  // a SplitMix64-style avalanche so nearby seeds decorrelate.
  uint64_t h = 0xCBF29CE484222325ULL ^ seed;
  for (unsigned char byte : data) {
    h ^= byte;
    h *= 0x100000001B3ULL;
  }
  h ^= h >> 30;
  h *= 0xBF58476D1CE4E5B9ULL;
  h ^= h >> 27;
  h *= 0x94D049BB133111EBULL;
  h ^= h >> 31;
  return h;
}

}  // namespace hpa
