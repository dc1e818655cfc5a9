#include "common/string_util.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace hpa {

std::vector<std::string_view> Split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string_view Trim(std::string_view s) {
  size_t b = 0;
  while (b < s.size() && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  size_t e = s.size();
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

std::string ToLowerAscii(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::string HumanBytes(uint64_t bytes) {
  static const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double value = static_cast<double>(bytes);
  int unit = 0;
  while (value >= 1024.0 && unit < 4) {
    value /= 1024.0;
    ++unit;
  }
  if (unit == 0) return StrFormat("%llu B", static_cast<unsigned long long>(bytes));
  return StrFormat("%.1f %s", value, kUnits[unit]);
}

std::string HumanDuration(double seconds) {
  if (seconds < 0) return "-" + HumanDuration(-seconds);
  if (seconds >= 1.0) return StrFormat("%.2f s", seconds);
  if (seconds >= 1e-3) return StrFormat("%.2f ms", seconds * 1e3);
  if (seconds >= 1e-6) return StrFormat("%.2f us", seconds * 1e6);
  return StrFormat("%.0f ns", seconds * 1e9);
}

std::string WithThousands(uint64_t value) {
  std::string digits = std::to_string(value);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  size_t lead = digits.size() % 3;
  if (lead == 0) lead = 3;
  for (size_t i = 0; i < digits.size(); ++i) {
    if (i >= lead && (i - lead) % 3 == 0) out += ',';
    out += digits[i];
  }
  return out;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

void AppendDouble(std::string& out, double value) {
  char buf[32];
  // 9 significant digits: enough for any float to round-trip exactly
  // through text (ARFF intermediates must not perturb clustering).
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value,
                                 std::chars_format::general, 9);
  if (ec == std::errc()) {
    out.append(buf, static_cast<size_t>(ptr - buf));
  } else {
    out += std::to_string(value);  // unreachable for finite doubles
  }
}

void AppendUint(std::string& out, uint64_t value) {
  char buf[24];
  auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  (void)ec;  // cannot fail for a 24-byte buffer
  out.append(buf, static_cast<size_t>(ptr - buf));
}

void ResizeBuffer(std::string& buffer, size_t size) {
  if (buffer.capacity() < size) {
    std::string grown;
    grown.reserve(size + size / 8);
    buffer.swap(grown);
  }
  buffer.resize(size);
}

bool ParseInt64(std::string_view s, int64_t* out) {
  s = Trim(s);
  if (s.empty()) return false;
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(buf.c_str(), &end, 10);
  if (errno == ERANGE || end != buf.c_str() + buf.size()) return false;
  *out = v;
  return true;
}

bool ParseDouble(std::string_view s, double* out) {
  s = Trim(s);
  if (s.empty()) return false;
  std::string buf(s);
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (errno == ERANGE || end != buf.c_str() + buf.size()) return false;
  *out = v;
  return true;
}

}  // namespace hpa
