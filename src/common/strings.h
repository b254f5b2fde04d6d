#ifndef CDES_COMMON_STRINGS_H_
#define CDES_COMMON_STRINGS_H_

#include <charconv>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace cdes {

namespace strings_internal {

/// Appends `value` to `*out` exactly as `std::ostream << value` would
/// print it: integers through std::to_chars, `bool` as 1/0, the three char
/// types as characters, string-likes verbatim. Every other type (floating
/// point, enums, Status, ...) still goes through a stream, so output is
/// byte-identical to the stream formatting it replaces.
template <typename T>
void AppendPiece(std::string* out, const T& value) {
  using D = std::decay_t<T>;
  if constexpr (std::is_same_v<D, bool>) {
    out->push_back(value ? '1' : '0');
  } else if constexpr (std::is_same_v<D, char> ||
                       std::is_same_v<D, signed char> ||
                       std::is_same_v<D, unsigned char>) {
    out->push_back(static_cast<char>(value));
  } else if constexpr (std::is_integral_v<D>) {
    char buf[24];
    auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
    out->append(buf, end);
  } else if constexpr (std::is_convertible_v<const T&, std::string_view>) {
    out->append(std::string_view(value));
  } else {
    std::ostringstream stream;
    stream << value;
    out->append(stream.str());
  }
}

}  // namespace strings_internal

/// Joins the elements of `parts` (stream-printable) with `sep`.
template <typename Container>
std::string StrJoin(const Container& parts, std::string_view sep) {
  std::string out;
  bool first = true;
  for (const auto& p : parts) {
    if (!first) out.append(sep);
    first = false;
    strings_internal::AppendPiece(&out, p);
  }
  return out;
}

/// Appends stream-printable arguments to `*out`, formatted as StrCat does.
template <typename... Args>
void StrAppend([[maybe_unused]] std::string* out, const Args&... args) {
  (strings_internal::AppendPiece(out, args), ...);
}

/// Concatenates stream-printable arguments into a string.
template <typename... Args>
std::string StrCat(const Args&... args) {
  std::string out;
  StrAppend(&out, args...);
  return out;
}

/// Splits `text` on `sep`, keeping empty fields.
std::vector<std::string> StrSplit(std::string_view text, char sep);

/// Removes leading and trailing ASCII whitespace.
std::string_view StripWhitespace(std::string_view text);

/// True if `text` starts with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// Parses `text` as a non-empty run of decimal digits. Returns false, and
/// leaves `*out` untouched, on any other character or when the value does
/// not fit in 64 bits — it never wraps.
bool ParseU64(std::string_view text, uint64_t* out);

}  // namespace cdes

#endif  // CDES_COMMON_STRINGS_H_
