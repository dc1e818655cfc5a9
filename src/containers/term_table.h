#ifndef HPA_CONTAINERS_TERM_TABLE_H_
#define HPA_CONTAINERS_TERM_TABLE_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

/// \file
/// The term -> dense id table of the text pipeline (interned word count,
/// vocabulary merge, TF/IDF vectorizer). The caller supplies each term's
/// 64-bit hash — the tokenizer computes it while scanning — so the table
/// never hashes a string. Term bytes live back to back in one arena; the
/// open-addressed slot array holds {hash, offset, length, id}, and bytes
/// are compared only when the full hash matches.
///
/// Under linear probing a term's distance from its home slot depends on
/// what was inserted before it, so insertion order is a layout choice.
/// Counting tables intern in first-seen order; a table built whole from a
/// known vocabulary (the fitted model's index) uses Insert, hottest term
/// first, so the terms most looked up sit at or next to their home slots.

namespace hpa::containers {

/// Interns strings to ids 0, 1, 2, ... in first-seen order, or holds
/// caller-numbered terms placed by Insert. Linear probing over a
/// power-of-two slot array, max load factor 7/8; growing moves slots by
/// their stored hash without touching the arena.
class TermTable {
 public:
  static constexpr uint32_t kAbsent = UINT32_MAX;

  /// Room for `capacity_hint` terms before the slot array grows.
  explicit TermTable(size_t capacity_hint = 0) {
    size_t cap = 16;
    while (cap * 7 / 8 < capacity_hint) cap <<= 1;
    Rehash(cap);
  }

  size_t size() const { return size_; }

  /// The id of `term` (whose hash is `hash`); an absent term is copied
  /// into the arena and gets id size().
  uint32_t Intern(std::string_view term, uint64_t hash) {
    size_t i = Probe(term, hash);
    if (slots_[i].id != kAbsent) return slots_[i].id;
    if ((size_ + 1) * 8 > slots_.size() * 7) {
      Rehash(slots_.size() * 2);
      i = Probe(term, hash);
    }
    Place(slots_[i], term, hash, static_cast<uint32_t>(size_));
    return slots_[i].id;
  }

  /// Places `term` (whose hash is `hash`, not yet in the table) under
  /// the caller's `id`. For tables built whole from a numbered
  /// vocabulary; do not mix with Intern, which numbers by size(). Earlier
  /// inserts probe shorter chains, so insert the most looked-up first.
  void Insert(std::string_view term, uint64_t hash, uint32_t id) {
    if ((size_ + 1) * 8 > slots_.size() * 7) Rehash(slots_.size() * 2);
    Place(slots_[Probe(term, hash)], term, hash, id);
  }

  /// The id of `term` (whose hash is `hash`), or kAbsent. A moved-from
  /// table has no slots and finds nothing.
  uint32_t Find(std::string_view term, uint64_t hash) const {
    return slots_.empty() ? kAbsent : slots_[Probe(term, hash)].id;
  }

  /// Calls fn(term, hash, id) for every term, in slot order. The views
  /// point into the arena and stay valid until the next Intern or Insert.
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (const Slot& s : slots_) {
      if (s.id != kAbsent) {
        fn(std::string_view(arena_.data() + s.offset, s.length), s.hash,
           s.id);
      }
    }
  }

  /// Slot array plus arena.
  uint64_t ApproxMemoryBytes() const {
    return slots_.capacity() * sizeof(Slot) + arena_.capacity();
  }

 private:
  struct Slot {
    uint64_t hash = 0;
    uint64_t offset = 0;  ///< first byte in arena_
    uint32_t length = 0;
    uint32_t id = kAbsent;  ///< kAbsent: empty slot
  };

  /// The slot holding `term`, or the empty slot ending its probe chain.
  size_t Probe(std::string_view term, uint64_t hash) const {
    const size_t mask = slots_.size() - 1;
    size_t i = static_cast<size_t>(hash) & mask;
    while (true) {
      const Slot& s = slots_[i];
      if (s.id == kAbsent) return i;
      if (s.hash == hash && s.length == term.size() &&
          (term.empty() || std::memcmp(arena_.data() + s.offset, term.data(),
                                       term.size()) == 0)) {
        return i;
      }
      i = (i + 1) & mask;
    }
  }

  /// Fills the empty slot `s` with `term` under `id`.
  void Place(Slot& s, std::string_view term, uint64_t hash, uint32_t id) {
    s.hash = hash;
    s.offset = arena_.size();
    s.length = static_cast<uint32_t>(term.size());
    s.id = id;
    ++size_;
    arena_.append(term);
  }

  void Rehash(size_t new_cap) {
    std::vector<Slot> old(new_cap);
    old.swap(slots_);
    const size_t mask = new_cap - 1;
    for (const Slot& s : old) {
      if (s.id == kAbsent) continue;
      size_t i = static_cast<size_t>(s.hash) & mask;
      while (slots_[i].id != kAbsent) i = (i + 1) & mask;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  std::string arena_;
  size_t size_ = 0;
};

}  // namespace hpa::containers

#endif  // HPA_CONTAINERS_TERM_TABLE_H_
