// The two JSON writing primitives every hand-built JSON document in the
// codebase shares: string escaping and number formatting.
#ifndef ALCOP_SUPPORT_JSON_H_
#define ALCOP_SUPPORT_JSON_H_

#include <cstddef>
#include <string>

namespace alcop {
namespace support {

// Escapes `text` for embedding between the quotes of a JSON string:
// '"', '\\', '\n', '\t' and '\r' become two-character escapes, every
// other byte below 0x20 becomes \u00XX, and all other bytes pass through.
std::string JsonEscape(const std::string& text);

// `value` printed as %.17g does (with std::to_chars), which round-trips
// doubles exactly and prints integers without an exponent; non-finite
// values print as null.
std::string JsonNumber(double value);

// The longest text JsonNumber produces ("-2.2250738585072014e-308").
inline constexpr size_t kJsonNumberMaxChars = 24;

// Writes JsonNumber(value) at `out`, which has room for
// kJsonNumberMaxChars, and returns the end of what it wrote.
char* WriteJsonNumber(double value, char* out);

}  // namespace support
}  // namespace alcop

#endif  // ALCOP_SUPPORT_JSON_H_
