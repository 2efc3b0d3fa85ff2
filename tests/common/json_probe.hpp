// One string that takes every path through common::json_quote, for the
// emitter round-trip tests: each emitter's output must parse back with
// Json::parse to exactly this string.
#pragma once

namespace iotls::common {

/// `"` and `\`; \b (written \u0008), \n, \r and \t; two more control
/// bytes; DEL, which is copied; and a two-byte UTF-8 "é".
inline constexpr const char* kJsonProbe =
    "a\"b\\c\b\n\r\t\x01\x1f\x7f\xc3\xa9";

}  // namespace iotls::common
