#pragma once
// Strict number parsing for outside input (HTTP query values,
// environment variables, command-line flags).
//
// std::strtoull is the wrong tool there: it skips leading whitespace,
// accepts a sign and negates "-1" into 2^64-1, and saturates on
// overflow unless the caller remembers to check errno.

#include <charconv>
#include <cstdint>
#include <string_view>
#include <system_error>

namespace hmr {

/// Parse `s` as a base-10 unsigned 64-bit integer.  Accepts ASCII
/// digits only: empty input, whitespace, a sign, trailing bytes and
/// values above 2^64-1 are rejected.  On failure `*out` is untouched.
inline bool parse_u64(std::string_view s, std::uint64_t* out) {
  std::uint64_t v = 0;
  const char* const last = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), last, v);
  if (ec != std::errc() || ptr != last) return false;
  *out = v;
  return true;
}

} // namespace hmr
