#include "aqua/common/string_util.h"

#include <cctype>
#include <charconv>
#include <cstdio>

namespace aqua {

std::vector<std::string_view> Split(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  size_t start = 0;
  for (size_t i = 0; i <= text.size(); ++i) {
    if (i == text.size() || text[i] == sep) {
      out.push_back(text.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view Trim(std::string_view text) {
  size_t b = 0;
  size_t e = text.size();
  while (b < e && std::isspace(static_cast<unsigned char>(text[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) --e;
  return text.substr(b, e - b);
}

std::string ToLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

std::string FormatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

std::string FormatRoundTrip(double v) {
  char buf[32];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, r.ptr);
}

std::optional<double> ParseDouble(std::string_view text) {
  // strtod's leading whitespace: the C locale's isspace, without the
  // locale lookup.
  size_t i = 0;
  while (i < text.size() &&
         (text[i] == ' ' || (text[i] >= '\t' && text[i] <= '\r'))) {
    ++i;
  }
  // from_chars takes no '+' and no "0x" prefix, so the sign and prefix are
  // consumed here; what follows must start the number itself.
  bool negative = false;
  if (i < text.size() && (text[i] == '+' || text[i] == '-')) {
    negative = text[i] == '-';
    ++i;
  }
  std::chars_format format = std::chars_format::general;
  if (text.size() - i > 2 && text[i] == '0' &&
      (text[i + 1] == 'x' || text[i + 1] == 'X')) {
    i += 2;
    // from_chars reads "inf" and a '-' in hex mode too; strtod does not
    // after "0x".
    if (!std::isxdigit(static_cast<unsigned char>(text[i])) && text[i] != '.') {
      return std::nullopt;
    }
    format = std::chars_format::hex;
  }
  if (i == text.size() || text[i] == '+' || text[i] == '-') return std::nullopt;
  const char* last = text.data() + text.size();
  double v = 0;
  const std::from_chars_result r =
      std::from_chars(text.data() + i, last, v, format);
  if (r.ec != std::errc() || r.ptr != last) return std::nullopt;
  return negative ? -v : v;
}

}  // namespace aqua
