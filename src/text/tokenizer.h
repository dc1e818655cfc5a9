#ifndef HPA_TEXT_TOKENIZER_H_
#define HPA_TEXT_TOKENIZER_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>
#include <type_traits>

/// \file
/// Zero-allocation ASCII tokenizer used by word count / TF-IDF. Tokens are
/// maximal runs of ASCII letters. The scanner classifies the body 64 bytes
/// at a time into a letter bitmask (SWAR, 8 bytes per step), so token
/// starts and ends are bit edges found with count-trailing-zeros rather
/// than a branch per byte. Each token is then read one 8-byte word per
/// step: the word is lowercased, stored into a small stack buffer and
/// folded into the token's 64-bit hash. A caller that interns the token
/// (word count, the vectorizer) therefore never hashes it a second time,
/// and the hot loop performs no heap allocation per token.

namespace hpa::text {

/// Tokenization parameters.
struct TokenizerOptions {
  /// Tokens shorter than this are skipped (noise like "a", "I").
  size_t min_token_length = 1;

  /// Tokens longer than this are truncated (defensive bound; natural
  /// language rarely exceeds ~30 letters). Capped at 64.
  size_t max_token_length = 64;

  /// Lowercase tokens (the paper's TF/IDF treats words case-insensitively).
  bool lowercase = true;
};

namespace internal_scan {

constexpr uint64_t kLaneHigh = 0x8080808080808080ULL;
constexpr uint64_t kCaseBit = 0x2020202020202020ULL;
constexpr uint64_t kHashSeed = 0x9AE16A3B2F90404FULL;

/// Up to 8 bytes at `p` (`avail` readable) as a little-endian word, zero
/// padded: a zero byte is no letter, so the body's end ends a token.
inline uint64_t LoadWord(const char* p, size_t avail) {
  uint64_t w = 0;
  if (avail >= 8) {
    std::memcpy(&w, p, 8);  // one unaligned load
  } else {
    std::memcpy(&w, p, avail);
  }
  if constexpr (std::endian::native == std::endian::big) {
    w = __builtin_bswap64(w);
  }
  return w;
}

inline void StoreWord(char* p, uint64_t w) {
  if constexpr (std::endian::native == std::endian::big) {
    w = __builtin_bswap64(w);
  }
  std::memcpy(p, &w, 8);
}

/// 0x80 in every byte lane of `w` that holds an ASCII letter. Lanes are
/// case-folded and stripped to 7 bits first, so the two range adds cannot
/// carry into a neighbour; bytes >= 0x80 are masked out at the end.
inline uint64_t LetterLanes(uint64_t w) {
  const uint64_t folded = (w | kCaseBit) & 0x7F7F7F7F7F7F7F7FULL;
  const uint64_t at_least_a = folded + 0x1F1F1F1F1F1F1F1FULL;  // >= 'a'
  const uint64_t past_z = folded + 0x0505050505050505ULL;      // >  'z'
  return at_least_a & ~past_z & ~w & kLaneHigh;
}

/// Bit i set iff byte i of the 64-byte block at `p` (`avail` readable)
/// is a letter; bytes past `avail` are not. The multiply gathers each
/// lane's flag into the top byte without carries.
inline uint64_t LetterBits(const char* p, size_t avail) {
  uint64_t bits = 0;
  for (size_t off = 0; off < 64 && off < avail; off += 8) {
    const uint64_t flags = LetterLanes(LoadWord(p + off, avail - off)) >> 7;
    bits |= ((flags * 0x0102040810204080ULL) >> 56) << off;
  }
  return bits;
}

/// The low `bytes` lanes (1..8).
inline uint64_t LaneMask(size_t bytes) { return ~0ULL >> (64 - 8 * bytes); }

/// Folds one (zero-padded) word into the running hash. Both steps are
/// bijective, so equal-length one-word tokens never collide.
inline uint64_t MixWord(uint64_t h, uint64_t w) {
  h = (h ^ w) * 0x9E3779B97F4A7C15ULL;
  return h ^ (h >> 29);
}

/// Mixes in the length and avalanches (murmur3's finalizer), so the low
/// bits a power-of-two table masks with depend on every input bit.
inline uint64_t FinishHash(uint64_t h, size_t len) {
  h ^= len;
  h ^= h >> 33;
  h *= 0xFF51AFD7ED558CCDULL;
  h ^= h >> 33;
  h *= 0xC4CEB9FE1A85EC53ULL;
  return h ^ (h >> 33);
}

}  // namespace internal_scan

/// The 64-bit hash ForEachToken yields with `token`: callers that rewrite
/// a token (stemming) or intern terms that did not come from the scanner
/// (a model's vocabulary) hash them with this.
inline uint64_t TokenHash(std::string_view token) {
  using namespace internal_scan;
  uint64_t h = kHashSeed;
  for (size_t i = 0; i < token.size(); i += 8) {
    h = MixWord(h, LoadWord(token.data() + i, token.size() - i));
  }
  return FinishHash(h, token.size());
}

/// Calls `fn(std::string_view token, uint64_t hash)` for every token in
/// `body`, where `hash == TokenHash(token)`; `fn(std::string_view token)`
/// is accepted too. The string_view points into an internal stack buffer
/// and is only valid for the duration of the call.
template <typename Fn>
void ForEachToken(std::string_view body, const TokenizerOptions& options,
                  Fn fn) {
  using namespace internal_scan;
  alignas(8) char buf[64];
  const size_t max_len = std::min<size_t>(options.max_token_length, 64);
  const size_t min_len = std::max<size_t>(options.min_token_length, 1);
  const uint64_t fold = options.lowercase ? kCaseBit : 0;
  const char* const data = body.data();
  const size_t n = body.size();
  // The token [begin, end): its first max_len letters are folded, stored
  // and hashed one word per step; letters beyond max_len are dropped.
  auto emit = [&](size_t begin, size_t end) {
    const size_t len = std::min(end - begin, max_len);
    if (len < min_len) return;
    uint64_t h = kHashSeed;
    for (size_t i = 0; i < len; i += 8) {
      const uint64_t w =
          (LoadWord(data + begin + i, n - begin - i) | fold) &
          LaneMask(std::min<size_t>(len - i, 8));
      StoreWord(buf + i, w);
      h = MixWord(h, w);
    }
    const std::string_view token(buf, len);
    if constexpr (std::is_invocable_v<Fn&, std::string_view, uint64_t>) {
      fn(token, FinishHash(h, len));
    } else {
      fn(token);
    }
  };
  size_t begin = 0;     // start of the open token
  bool open = false;    // inside a token
  uint64_t carry = 0;   // 1 if the previous block ended on a letter
  for (size_t base = 0; base < n; base += 64) {
    const uint64_t letters = LetterBits(data + base, n - base);
    // A set bit marks a byte whose letter-ness differs from the byte
    // before it: starts and ends alternate.
    uint64_t edges = letters ^ ((letters << 1) | carry);
    carry = letters >> 63;
    while (edges != 0) {
      const size_t at = base + static_cast<size_t>(std::countr_zero(edges));
      edges &= edges - 1;
      if (open) emit(begin, at);
      begin = at;
      open = !open;
    }
  }
  if (open) emit(begin, n);
}

/// Convenience overload with default options.
template <typename Fn>
void ForEachToken(std::string_view body, Fn fn) {
  ForEachToken(body, TokenizerOptions{}, fn);
}

/// Counts tokens in `body` under `options`.
size_t CountTokens(std::string_view body, const TokenizerOptions& options);

}  // namespace hpa::text

#endif  // HPA_TEXT_TOKENIZER_H_
