#include "common/checksum.h"

#include <array>

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

}  // namespace

uint32_t Crc32(std::string_view data, uint32_t crc) {
  const CrcTables& t = Tables();
  const auto* p = reinterpret_cast<const unsigned char*>(data.data());
  size_t len = data.size();
  uint32_t c = crc ^ 0xFFFFFFFFu;
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
  return c ^ 0xFFFFFFFFu;
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
