#pragma once
// Strict number parsing for outside input (HTTP query values,
// environment variables, command-line flags).
//
// The C parsers are the wrong tool there: strtoull/strtoll/strtod skip
// leading whitespace and accept a '+' sign, strtoull negates "-1" into
// 2^64-1, strtod reads hex floats, "nan" and "inf", and every one of
// them saturates on overflow unless the caller remembers to check
// errno.  These wrap std::from_chars, which does none of that, and
// additionally demand that the whole input is consumed.

#include <charconv>
#include <cmath>
#include <cstdint>
#include <string_view>
#include <system_error>

namespace hmr {

namespace detail {

/// std::from_chars over all of `s`: on any error or unconsumed byte
/// returns false and leaves `*out` untouched.
template <typename T>
bool from_chars_whole(std::string_view s, T* out) {
  T v{};
  const char* const last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), last, v);
  if (ec != std::errc() || ptr != last) return false;
  *out = v;
  return true;
}

} // namespace detail

/// Parse `s` as a base-10 unsigned 64-bit integer.  Accepts ASCII
/// digits only: empty input, whitespace, a sign, trailing bytes and
/// values above 2^64-1 are rejected.  On failure `*out` is untouched.
inline bool parse_u64(std::string_view s, std::uint64_t* out) {
  return detail::from_chars_whole(s, out);
}

/// Parse `s` as a base-10 signed 64-bit integer: an optional '-' and
/// ASCII digits.  Empty input, whitespace, '+', trailing bytes and
/// values outside [-2^63, 2^63-1] are rejected.  On failure `*out` is
/// untouched.
inline bool parse_i64(std::string_view s, std::int64_t* out) {
  return detail::from_chars_whole(s, out);
}

/// Parse `s` as a finite decimal double ("2.5", "-1e-3", "7").  Empty
/// input, whitespace, '+', hex floats, trailing bytes, values out of
/// double's range, "nan" and "inf" are rejected.  On failure `*out` is
/// untouched.
inline bool parse_f64(std::string_view s, double* out) {
  double v = 0;
  if (!detail::from_chars_whole(s, &v) || !std::isfinite(v)) return false;
  *out = v;
  return true;
}

} // namespace hmr
