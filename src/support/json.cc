#include "support/json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <system_error>

#include "support/check.h"

namespace alcop {
namespace support {

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

char* WriteJsonNumber(double value, char* out) {
  if (!std::isfinite(value)) return std::copy_n("null", 4, out);
  const std::to_chars_result result =
      std::to_chars(out, out + kJsonNumberMaxChars, value,
                    std::chars_format::general, 17);
  ALCOP_CHECK(result.ec == std::errc()) << "number overflows its buffer";
  return result.ptr;
}

std::string JsonNumber(double value) {
  char buf[kJsonNumberMaxChars];
  return std::string(buf, WriteJsonNumber(value, buf));
}

}  // namespace support
}  // namespace alcop
