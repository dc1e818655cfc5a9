#include "text/tokenizer.h"

#include <algorithm>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace hpa::text {
namespace {

std::vector<std::string> Tokens(std::string_view body,
                                TokenizerOptions options = {}) {
  std::vector<std::string> out;
  ForEachToken(body, options, [&](std::string_view t) {
    out.emplace_back(t);
  });
  return out;
}

TEST(TokenizerTest, SplitsOnNonLetters) {
  EXPECT_EQ(Tokens("the cat, sat. on-the mat!"),
            (std::vector<std::string>{"the", "cat", "sat", "on", "the",
                                      "mat"}));
}

TEST(TokenizerTest, LowercasesByDefault) {
  EXPECT_EQ(Tokens("Hello WORLD MiXeD"),
            (std::vector<std::string>{"hello", "world", "mixed"}));
}

TEST(TokenizerTest, PreservesCaseWhenDisabled) {
  TokenizerOptions opts;
  opts.lowercase = false;
  EXPECT_EQ(Tokens("Hello WORLD", opts),
            (std::vector<std::string>{"Hello", "WORLD"}));
}

TEST(TokenizerTest, DigitsArePunctuationNotLetters) {
  EXPECT_EQ(Tokens("abc123def 42"),
            (std::vector<std::string>{"abc", "def"}));
}

TEST(TokenizerTest, EmptyAndNonLetterInputsYieldNothing) {
  EXPECT_TRUE(Tokens("").empty());
  EXPECT_TRUE(Tokens("123 456 ... !!!").empty());
}

TEST(TokenizerTest, MinLengthFiltersShortTokens) {
  TokenizerOptions opts;
  opts.min_token_length = 3;
  EXPECT_EQ(Tokens("I am the walrus", opts),
            (std::vector<std::string>{"the", "walrus"}));
}

TEST(TokenizerTest, LongTokensAreTruncated) {
  TokenizerOptions opts;
  opts.max_token_length = 4;
  EXPECT_EQ(Tokens("abcdefgh xy", opts),
            (std::vector<std::string>{"abcd", "xy"}));
}

TEST(TokenizerTest, TokenAtEndOfInputIsEmitted) {
  EXPECT_EQ(Tokens("ends with word"),
            (std::vector<std::string>{"ends", "with", "word"}));
}

TEST(TokenizerTest, UnicodeBytesAreSeparators) {
  // Non-ASCII bytes are treated as separators, not letters.
  EXPECT_EQ(Tokens("caf\xC3\xA9 bar"),
            (std::vector<std::string>{"caf", "bar"}));
}

TEST(TokenizerTest, NewlinesAndTabsSeparate) {
  EXPECT_EQ(Tokens("one\ntwo\tthree"),
            (std::vector<std::string>{"one", "two", "three"}));
}

// The byte-at-a-time tokenizer the word-at-a-time scanner must match.
std::vector<std::string> ReferenceTokens(std::string_view body,
                                         const TokenizerOptions& options) {
  std::vector<std::string> out;
  std::string token;
  size_t letters = 0;
  auto flush = [&] {
    if (letters > 0 && token.size() >= options.min_token_length) {
      out.push_back(token);
    }
    token.clear();
    letters = 0;
  };
  for (char ch : body) {
    const unsigned char c = static_cast<unsigned char>(ch);
    const bool upper = c >= 'A' && c <= 'Z';
    if (!upper && !(c >= 'a' && c <= 'z')) {
      flush();
      continue;
    }
    ++letters;
    if (token.size() < std::min<size_t>(options.max_token_length, 64)) {
      token.push_back(static_cast<char>(upper && options.lowercase ? c + 32
                                                                   : c));
    }
  }
  flush();
  return out;
}

// Seeded random bodies: separators of every class (bytes >= 0x80, digits,
// punctuation, the bytes next to the letter ranges), mixed-case letter
// runs including lengths 63, 64, 65 and 200, and half the bodies end
// inside a token.
std::string RandomBody(Rng& rng) {
  static const std::string kSeparators =
      std::string(" \t\n0123456789.,;-'@[`{_\x7f\x80\xc3\xa9\xff") +
      std::string(1, '\0');
  std::string body;
  const size_t runs = rng.NextBounded(40);
  for (size_t r = 0; r < runs; ++r) {
    size_t len = 1 + rng.NextBounded(12);
    switch (rng.NextBounded(10)) {
      case 0: len = 63 + rng.NextBounded(3); break;
      case 1: len = 200; break;
      default: break;
    }
    for (size_t i = 0; i < len; ++i) {
      const char base = rng.NextBounded(3) == 0 ? 'A' : 'a';
      body.push_back(static_cast<char>(base + rng.NextBounded(26)));
    }
    const size_t gap = 1 + rng.NextBounded(10);
    for (size_t i = 0; i < gap; ++i) {
      body.push_back(kSeparators[rng.NextBounded(kSeparators.size())]);
    }
  }
  if (rng.NextBounded(2) == 0) body += "endword";
  return body;
}

TEST(TokenScannerTest, MatchesReferenceTokenizerAndTokenHash) {
  Rng rng(20261019);
  struct Case {
    size_t min_len;
    size_t max_len;
    bool lowercase;
  };
  for (const Case& c : {Case{1, 64, true}, Case{4, 64, true},
                        Case{1, 64, false}, Case{4, 64, false},
                        Case{1, 5, true}, Case{2, 8, true},
                        Case{1, 100, true}}) {
    TokenizerOptions options;
    options.min_token_length = c.min_len;
    options.max_token_length = c.max_len;
    options.lowercase = c.lowercase;
    SCOPED_TRACE(testing::Message() << "min " << c.min_len << " max "
                                    << c.max_len << " lowercase "
                                    << c.lowercase);
    for (int trial = 0; trial < 300; ++trial) {
      const std::string body = RandomBody(rng);
      // An exact-size heap copy, so a read past the body's end would be
      // an out-of-bounds read under the sanitizers.
      const std::unique_ptr<char[]> exact(new char[body.size()]);
      std::memcpy(exact.get(), body.data(), body.size());
      std::vector<std::string> got;
      ForEachToken(std::string_view(exact.get(), body.size()), options,
                   [&](std::string_view token, uint64_t hash) {
                     EXPECT_EQ(hash, TokenHash(token)) << token;
                     got.emplace_back(token);
                   });
      ASSERT_EQ(got, ReferenceTokens(body, options)) << "trial " << trial;
    }
  }
}

TEST(TokenHashTest, DependsOnEveryByteAndTheLength) {
  EXPECT_EQ(TokenHash("abc"), TokenHash(std::string("abc")));
  EXPECT_NE(TokenHash("abc"), TokenHash("abd"));
  EXPECT_NE(TokenHash("abc"), TokenHash("ab"));
  EXPECT_NE(TokenHash("abcdefgh"), TokenHash("abcdefghi"));
  EXPECT_NE(TokenHash("abcdefghijklmnop"), TokenHash("abcdefghijklmnoq"));
  EXPECT_NE(TokenHash(""), TokenHash("a"));
}

TEST(CountTokensTest, MatchesForEachToken) {
  TokenizerOptions opts;
  EXPECT_EQ(CountTokens("a bb ccc dddd", opts), 4u);
  opts.min_token_length = 2;
  EXPECT_EQ(CountTokens("a bb ccc dddd", opts), 3u);
}

}  // namespace
}  // namespace hpa::text
