#include "serving/protocol.h"

#include <errno.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cctype>
#include <charconv>
#include <cstring>

namespace alcop {
namespace serving {

namespace {

bool ReadExact(int fd, char* out, size_t size) {
  size_t done = 0;
  while (done < size) {
    ssize_t n = ::read(fd, out + done, size - done);
    if (n == 0) return false;  // orderly EOF
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

}  // namespace

bool ReadFrame(int fd, std::string* payload) {
  uint32_t len = 0;
  if (!ReadExact(fd, reinterpret_cast<char*>(&len), sizeof(len))) return false;
  if (len > kMaxFrameBytes) return false;
  payload->resize(len);
  return len == 0 || ReadExact(fd, payload->data(), len);
}

FrameParseResult ParseFrame(std::string_view buffer, std::string* payload,
                            size_t* consumed) {
  uint32_t len = 0;
  if (buffer.size() < sizeof(len)) return FrameParseResult::kNeedMore;
  std::memcpy(&len, buffer.data(), sizeof(len));
  if (len > kMaxFrameBytes) return FrameParseResult::kBad;
  if (buffer.size() - sizeof(len) < len) return FrameParseResult::kNeedMore;
  payload->assign(buffer.substr(sizeof(len), len));
  *consumed = sizeof(len) + len;
  return FrameParseResult::kOk;
}

bool WriteFrame(int fd, const std::string& payload) {
  if (payload.size() > kMaxFrameBytes) return false;
  uint32_t len = static_cast<uint32_t>(payload.size());
  // Prefix and payload leave in one writev, so the reader wakes once per
  // frame; a short write resumes from the first byte not yet sent.
  iovec parts[2] = {{&len, sizeof(len)},
                    {const_cast<char*>(payload.data()), payload.size()}};
  iovec* part = parts;
  int count = 2;
  while (count > 0) {
    ssize_t n = ::writev(fd, part, count);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    size_t sent = static_cast<size_t>(n);
    while (count > 0 && sent >= part->iov_len) {
      sent -= part->iov_len;
      ++part;
      --count;
    }
    if (count > 0) {
      part->iov_base = static_cast<char*>(part->iov_base) + sent;
      part->iov_len -= sent;
    }
  }
  return true;
}

bool AppendFrame(const std::string& payload, std::string* out) {
  if (payload.size() > kMaxFrameBytes) return false;
  uint32_t len = static_cast<uint32_t>(payload.size());
  out->append(reinterpret_cast<const char*>(&len), sizeof(len));
  out->append(payload);
  return true;
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : object) {
    if (name == key) return &value;
  }
  return nullptr;
}

double JsonValue::NumberOr(double fallback) const {
  return kind == Kind::kNumber ? number : fallback;
}

bool JsonValue::BoolOr(bool fallback) const {
  return kind == Kind::kBool ? boolean : fallback;
}

const std::string& JsonValue::StringOr(const std::string& fallback) const {
  return kind == Kind::kString ? string : fallback;
}

namespace {

// Recursive-descent parser over the protocol's JSON subset. Depth is
// bounded so a hostile payload cannot overflow the stack.
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    if (!Value(out, 0)) return false;
    SkipSpace();
    return pos_ == text_.size();
  }

 private:
  static constexpr int kMaxDepth = 32;

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool Literal(const char* word) {
    size_t len = std::strlen(word);
    if (text_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  bool String(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        char esc = text_[pos_++];
        switch (esc) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'n': out->push_back('\n'); break;
          case 't': out->push_back('\t'); break;
          case 'r': out->push_back('\r'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'u':
            if (!CodePoint(out)) return false;
            break;
          default: return false;
        }
      } else {
        out->push_back(c);
      }
    }
    return false;  // unterminated
  }

  // Four hex digits after "\u".
  bool Hex4(uint32_t* out) {
    if (text_.size() - pos_ < 4) return false;
    const char* end = text_.data() + pos_ + 4;
    auto [ptr, ec] = std::from_chars(text_.data() + pos_, end, *out, 16);
    pos_ += 4;
    return ec == std::errc() && ptr == end;
  }

  // The code point of a "\uXXXX" escape (a surrogate pair spans two)
  // appended as UTF-8. A lone surrogate has no code point and fails.
  bool CodePoint(std::string* out) {
    uint32_t code = 0;
    if (!Hex4(&code) || (code >= 0xDC00 && code <= 0xDFFF)) return false;
    if (code >= 0xD800 && code <= 0xDBFF) {
      uint32_t low = 0;
      if (!Literal("\\u") || !Hex4(&low) || low < 0xDC00 || low > 0xDFFF) {
        return false;
      }
      code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
    }
    // Lead byte, then six payload bits per continuation byte.
    static constexpr uint32_t kLead[] = {0, 0xC0, 0xE0, 0xF0};
    int tail = code < 0x80 ? 0 : code < 0x800 ? 1 : code < 0x10000 ? 2 : 3;
    out->push_back(static_cast<char>(kLead[tail] | (code >> (6 * tail))));
    for (int shift = 6 * (tail - 1); shift >= 0; shift -= 6) {
      out->push_back(static_cast<char>(0x80 | ((code >> shift) & 0x3F)));
    }
    return true;
  }

  bool Value(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return false;
    SkipSpace();
    if (pos_ >= text_.size()) return false;
    char c = text_[pos_];
    if (c == '{') return Object(out, depth);
    if (c == '[') return Array(out, depth);
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return String(&out->string);
    }
    if (c == 't') {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      return Literal("true");
    }
    if (c == 'f') {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = false;
      return Literal("false");
    }
    if (c == 'n') {
      out->kind = JsonValue::Kind::kNull;
      return Literal("null");
    }
    return Number(out);
  }

  // std::from_chars on the rest of the text, in place: a leading '-',
  // digits with an optional fraction and exponent, or inf/infinity/nan
  // (any case). Out of range fails; subnormals parse.
  bool Number(JsonValue* out) {
    const char* end = text_.data() + text_.size();
    auto [ptr, ec] = std::from_chars(text_.data() + pos_, end, out->number);
    if (ec != std::errc()) return false;
    out->kind = JsonValue::Kind::kNumber;
    pos_ = static_cast<size_t>(ptr - text_.data());
    return true;
  }

  bool Object(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kObject;
    ++pos_;  // '{'
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipSpace();
      std::string key;
      if (!String(&key)) return false;
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') return false;
      ++pos_;
      JsonValue value;
      if (!Value(&value, depth + 1)) return false;
      out->object.emplace_back(std::move(key), std::move(value));
      SkipSpace();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array(JsonValue* out, int depth) {
    out->kind = JsonValue::Kind::kArray;
    ++pos_;  // '['
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      JsonValue value;
      if (!Value(&value, depth + 1)) return false;
      out->array.push_back(std::move(value));
      SkipSpace();
      if (pos_ >= text_.size()) return false;
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

std::optional<JsonValue> ParseJson(const std::string& text) {
  JsonValue value;
  JsonParser parser(text);
  if (!parser.Parse(&value)) return std::nullopt;
  return value;
}

}  // namespace serving
}  // namespace alcop
