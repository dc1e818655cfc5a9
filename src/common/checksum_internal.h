#ifndef HPA_COMMON_CHECKSUM_INTERNAL_H_
#define HPA_COMMON_CHECKSUM_INTERNAL_H_

#include <cstdint>
#include <string_view>

/// \file
/// Private to common/checksum.cc and its tests: the portable CRC-32 loop
/// that hpa::Crc32 falls back to on short inputs, on the tail of a folded
/// input, and on hosts without carry-less multiply. Exposed so the tests can
/// check the fallback against the bitwise reference on a host whose
/// Crc32 always takes the folding kernel.

namespace hpa::crc_internal {

/// Slicing-by-8 CRC-32 of `data`; same value and streaming contract as
/// hpa::Crc32.
uint32_t Crc32SliceBy8(std::string_view data, uint32_t crc = 0);

}  // namespace hpa::crc_internal

#endif  // HPA_COMMON_CHECKSUM_INTERNAL_H_
