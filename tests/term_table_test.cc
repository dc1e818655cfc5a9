#include "containers/term_table.h"

#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "text/tokenizer.h"

namespace hpa::containers {
namespace {

std::string RandomTerm(Rng& rng) {
  // Short lengths collide often in content, long ones cross word
  // boundaries of the hash.
  std::string term(1 + rng.NextBounded(20), 'a');
  for (char& c : term) c = static_cast<char>('a' + rng.NextBounded(6));
  return term;
}

TEST(TermTableTest, MatchesUnorderedMapOverRandomInsertsAndLookups) {
  Rng rng(42);
  TermTable table;
  std::unordered_map<std::string, uint32_t> want;
  for (int op = 0; op < 100000; ++op) {
    const std::string term = RandomTerm(rng);
    const uint64_t hash = text::TokenHash(term);
    if (rng.NextBounded(2) == 0) {
      const auto [it, inserted] =
          want.emplace(term, static_cast<uint32_t>(want.size()));
      ASSERT_EQ(table.Intern(term, hash), it->second) << term;
    } else {
      const auto it = want.find(term);
      ASSERT_EQ(table.Find(term, hash),
                it == want.end() ? TermTable::kAbsent : it->second)
          << term;
    }
    ASSERT_EQ(table.size(), want.size());
  }
  size_t seen = 0;
  table.ForEach([&](std::string_view term, uint64_t hash, uint32_t id) {
    ++seen;
    EXPECT_EQ(hash, text::TokenHash(term));
    EXPECT_EQ(want.at(std::string(term)), id);
  });
  EXPECT_EQ(seen, want.size());
}

TEST(TermTableTest, EqualHashesWithDifferentBytesGetDifferentIds) {
  // A degenerate hash: every term probes the same chain, so only the
  // byte comparison tells them apart, across growth too.
  constexpr uint64_t kSameHash = 7;
  TermTable table;
  std::vector<std::string> terms;
  for (int i = 0; i < 100; ++i) terms.push_back("t" + std::to_string(i));
  terms.push_back("");
  for (size_t i = 0; i < terms.size(); ++i) {
    EXPECT_EQ(table.Intern(terms[i], kSameHash), i) << terms[i];
  }
  for (size_t i = 0; i < terms.size(); ++i) {
    EXPECT_EQ(table.Intern(terms[i], kSameHash), i) << terms[i];
    EXPECT_EQ(table.Find(terms[i], kSameHash), i) << terms[i];
  }
  EXPECT_EQ(table.size(), terms.size());
  EXPECT_EQ(table.Find("t100", kSameHash), TermTable::kAbsent);
  // A different hash is a different key to the table.
  EXPECT_EQ(table.Find("t1", kSameHash + 1), TermTable::kAbsent);
}

TEST(TermTableTest, CopiesAreIndependent) {
  TermTable table;
  table.Intern("alpha", text::TokenHash("alpha"));
  TermTable copy = table;
  copy.Intern("beta", text::TokenHash("beta"));
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(copy.size(), 2u);
  EXPECT_EQ(table.Find("beta", text::TokenHash("beta")), TermTable::kAbsent);
  EXPECT_EQ(copy.Find("alpha", text::TokenHash("alpha")), 0u);
  EXPECT_GT(copy.ApproxMemoryBytes(), 0u);
}

// A table built whole: terms placed under a shuffled numbering, from a
// 16-slot table so the slot array grows under Insert too. Each term is
// found under its own id, not under its insertion rank.
TEST(TermTableTest, InsertedTermsAreFoundUnderTheirIds) {
  Rng rng(7);
  std::unordered_map<std::string, uint32_t> want;
  std::vector<std::string> terms;
  while (terms.size() < 2000) {
    std::string term = RandomTerm(rng);
    if (want.emplace(term, 0).second) terms.push_back(std::move(term));
  }
  std::vector<uint32_t> ids(terms.size());
  for (uint32_t i = 0; i < ids.size(); ++i) ids[i] = i;
  Shuffle(ids, rng);
  TermTable table;
  for (size_t i = 0; i < terms.size(); ++i) {
    want[terms[i]] = ids[i];
    table.Insert(terms[i], text::TokenHash(terms[i]), ids[i]);
  }
  ASSERT_EQ(table.size(), terms.size());
  for (const std::string& term : terms) {
    EXPECT_EQ(table.Find(term, text::TokenHash(term)), want.at(term)) << term;
  }
  for (int probe = 0; probe < 2000; ++probe) {
    const std::string term = RandomTerm(rng) + "x";  // never inserted
    EXPECT_EQ(table.Find(term, text::TokenHash(term)), TermTable::kAbsent);
  }
  size_t seen = 0;
  table.ForEach([&](std::string_view term, uint64_t hash, uint32_t id) {
    ++seen;
    EXPECT_EQ(hash, text::TokenHash(term));
    EXPECT_EQ(want.at(std::string(term)), id);
  });
  EXPECT_EQ(seen, terms.size());
}

TEST(TermTableTest, InsertWithEqualHashesKeepsEachId) {
  constexpr uint64_t kSameHash = 11;
  TermTable table(4);
  for (uint32_t i = 0; i < 50; ++i) {
    table.Insert("t" + std::to_string(i), kSameHash, 1000 - i);
  }
  for (uint32_t i = 0; i < 50; ++i) {
    EXPECT_EQ(table.Find("t" + std::to_string(i), kSameHash), 1000 - i);
  }
  EXPECT_EQ(table.Find("t50", kSameHash), TermTable::kAbsent);
}

TEST(TermTableTest, CopiesOfAnInsertedTableAreIndependent) {
  TermTable table;
  table.Insert("alpha", text::TokenHash("alpha"), 5);
  TermTable copy = table;
  copy.Insert("beta", text::TokenHash("beta"), 9);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(copy.size(), 2u);
  EXPECT_EQ(table.Find("beta", text::TokenHash("beta")), TermTable::kAbsent);
  EXPECT_EQ(copy.Find("beta", text::TokenHash("beta")), 9u);
  EXPECT_EQ(copy.Find("alpha", text::TokenHash("alpha")), 5u);
  EXPECT_EQ(table.Find("alpha", text::TokenHash("alpha")), 5u);
}

}  // namespace
}  // namespace hpa::containers
