#ifndef HPA_COMMON_STRING_UTIL_H_
#define HPA_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

/// \file
/// Small string helpers shared across the library, benches and examples.

namespace hpa {

/// Splits `s` on `sep`, keeping empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string_view> Split(std::string_view s, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view s);

/// True iff `s` starts with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// ASCII lowercase copy of `s`.
std::string ToLowerAscii(std::string_view s);

/// "1.5 KiB", "62.8 MiB", ... with one decimal.
std::string HumanBytes(uint64_t bytes);

/// "123 ms", "4.21 s", "2.5 us", ... with sensible units.
std::string HumanDuration(double seconds);

/// Thousands-separated integer: 1234567 -> "1,234,567".
std::string WithThousands(uint64_t value);

/// printf-style formatting into a std::string.
std::string StrFormat(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Appends `value` to `out` in general form with 9 significant digits
/// (std::to_chars; several times faster than snprintf — this matters in
/// the serial ARFF output phase). 9 digits make float-valued doubles
/// round-trip exactly through text.
void AppendDouble(std::string& out, double value);

/// Appends `value` in base 10.
void AppendUint(std::string& out, uint64_t value);

/// Resizes a buffer recycled across similar-sized payloads. When it must
/// grow it allocates `size` plus an eighth — room for a slightly larger
/// next payload — not twice its old capacity as std::string::resize
/// would, so it stays near the largest payload seen. Unlike resize(), it
/// keeps no contents when it grows: callers overwrite them.
void ResizeBuffer(std::string& buffer, size_t size);

/// Parses a base-10 signed integer. Returns false on any non-numeric input,
/// overflow, or trailing garbage.
bool ParseInt64(std::string_view s, int64_t* out);

/// Parses a floating-point value. Returns false on malformed input.
bool ParseDouble(std::string_view s, double* out);

}  // namespace hpa

#endif  // HPA_COMMON_STRING_UTIL_H_
