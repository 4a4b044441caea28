#ifndef AQUA_COMMON_STRING_UTIL_H_
#define AQUA_COMMON_STRING_UTIL_H_

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace aqua {

/// Splits `text` on `sep`, keeping empty fields ("a,,b" -> {"a","","b"}).
std::vector<std::string_view> Split(std::string_view text, char sep);

/// Returns `text` without leading/trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

/// ASCII lowercase copy.
std::string ToLower(std::string_view text);

/// Case-insensitive ASCII equality (for SQL keywords and attribute names).
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// True iff `text` begins with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// printf-style float formatting with %.6g, as used in traces and benches.
std::string FormatDouble(double v);

/// Shortest text that parses back to exactly `v` (std::to_chars), for
/// every number aqua writes to be read again and for error messages that
/// must not round a value into looking valid.
std::string FormatRoundTrip(double v);

/// Parses all of `text` as a double with `std::from_chars`, accepting what
/// `std::stod` accepts: leading whitespace, a leading '+' or '-', hex
/// ("0x1.8p3"), "inf" and "nan". Unlike `std::stod` it also accepts
/// subnormals, so every double `FormatRoundTrip` or "%.17g" writes parses
/// back bit for bit. Returns nullopt on trailing junk ("1.5 ", "1.2.3") and
/// on values out of double's range ("1e400", "1e-400").
std::optional<double> ParseDouble(std::string_view text);

}  // namespace aqua

#endif  // AQUA_COMMON_STRING_UTIL_H_
