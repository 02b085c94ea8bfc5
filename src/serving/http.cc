#include "serving/http.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <sstream>

namespace alcop {
namespace serving {

namespace {

bool EqualsIgnoreCase(const std::string& a, const std::string& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    char ca = a[i], cb = b[i];
    if (ca >= 'A' && ca <= 'Z') ca = static_cast<char>(ca - 'A' + 'a');
    if (cb >= 'A' && cb <= 'Z') cb = static_cast<char>(cb - 'A' + 'a');
    if (ca != cb) return false;
  }
  return true;
}

std::string Trim(const std::string& s) {
  size_t begin = 0, end = s.size();
  while (begin < end && (s[begin] == ' ' || s[begin] == '\t')) ++begin;
  while (end > begin && (s[end - 1] == ' ' || s[end - 1] == '\t')) --end;
  return s.substr(begin, end - begin);
}

bool IsTokenChar(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '-' || c == '_' || c == '.';
}

const std::string* FindIn(
    const std::vector<std::pair<std::string, std::string>>& headers,
    const std::string& name) {
  for (const auto& [key, value] : headers) {
    if (EqualsIgnoreCase(key, name)) return &value;
  }
  return nullptr;
}

}  // namespace

const std::string* HttpRequest::FindHeader(const std::string& name) const {
  return FindIn(headers, name);
}

const std::string* HttpResponse::FindHeader(const std::string& name) const {
  return FindIn(headers, name);
}

HttpParseResult ParseHttpRequest(std::string_view buffer, HttpRequest* out,
                                 size_t* consumed, std::string* error) {
  *out = HttpRequest();
  *consumed = 0;
  size_t header_end = buffer.find("\r\n\r\n");
  if (header_end == std::string_view::npos) {
    if (buffer.size() > kMaxHttpHeaderBytes) {
      *error = "header section exceeds " +
               std::to_string(kMaxHttpHeaderBytes) + " bytes";
      return HttpParseResult::kBad;
    }
    return HttpParseResult::kNeedMore;
  }
  if (header_end > kMaxHttpHeaderBytes) {
    *error = "header section exceeds " + std::to_string(kMaxHttpHeaderBytes) +
             " bytes";
    return HttpParseResult::kBad;
  }

  size_t line_end = buffer.find("\r\n");
  std::string request_line(buffer.substr(0, line_end));
  size_t sp1 = request_line.find(' ');
  size_t sp2 = request_line.rfind(' ');
  if (sp1 == std::string::npos || sp2 == sp1) {
    *error = "malformed request line";
    return HttpParseResult::kBad;
  }
  out->method = request_line.substr(0, sp1);
  out->target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  out->version = request_line.substr(sp2 + 1);
  if (out->method.empty() || out->method.size() > 16) {
    *error = "bad method";
    return HttpParseResult::kBad;
  }
  for (char c : out->method) {
    if (c < 'A' || c > 'Z') {
      *error = "bad method";
      return HttpParseResult::kBad;
    }
  }
  if (out->target.empty() || out->target[0] != '/') {
    *error = "bad request target";
    return HttpParseResult::kBad;
  }
  for (char c : out->target) {
    if (static_cast<unsigned char>(c) <= 0x20 ||
        static_cast<unsigned char>(c) >= 0x7f) {
      *error = "bad request target";
      return HttpParseResult::kBad;
    }
  }
  if (out->version.rfind("HTTP/1.", 0) != 0) {
    *error = "unsupported HTTP version";
    return HttpParseResult::kBad;
  }

  size_t pos = line_end + 2;
  while (pos < header_end) {
    size_t eol = buffer.find("\r\n", pos);
    std::string line(buffer.substr(pos, eol - pos));
    pos = eol + 2;
    size_t colon = line.find(':');
    if (colon == std::string::npos || colon == 0) {
      *error = "malformed header line";
      return HttpParseResult::kBad;
    }
    std::string name = line.substr(0, colon);
    for (char c : name) {
      if (!IsTokenChar(c)) {
        *error = "malformed header name";
        return HttpParseResult::kBad;
      }
    }
    out->headers.emplace_back(std::move(name), Trim(line.substr(colon + 1)));
  }

  if (out->FindHeader("Transfer-Encoding") != nullptr) {
    *error = "transfer-encoding not supported";
    return HttpParseResult::kBad;
  }
  size_t content_length = 0;
  if (const std::string* cl = out->FindHeader("Content-Length")) {
    if (cl->empty()) {
      *error = "bad Content-Length";
      return HttpParseResult::kBad;
    }
    for (char c : *cl) {
      if (c < '0' || c > '9') {
        *error = "bad Content-Length";
        return HttpParseResult::kBad;
      }
    }
    unsigned long long parsed = std::strtoull(cl->c_str(), nullptr, 10);
    if (parsed > kMaxHttpBodyBytes) {
      *error = "body exceeds " + std::to_string(kMaxHttpBodyBytes) + " bytes";
      return HttpParseResult::kBad;
    }
    content_length = static_cast<size_t>(parsed);
  }

  size_t total = header_end + 4 + content_length;
  if (buffer.size() < total) return HttpParseResult::kNeedMore;
  out->body = buffer.substr(header_end + 4, content_length);

  out->keep_alive = out->version != "HTTP/1.0";
  if (const std::string* connection = out->FindHeader("Connection")) {
    if (EqualsIgnoreCase(*connection, "close")) out->keep_alive = false;
    if (EqualsIgnoreCase(*connection, "keep-alive")) out->keep_alive = true;
  }
  *consumed = total;
  return HttpParseResult::kOk;
}

const char* HttpStatusText(int status) {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 413: return "Payload Too Large";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    default: return "Unknown";
  }
}

void SplitTarget(const std::string& target, std::string* path,
                 std::string* query) {
  size_t mark = target.find('?');
  if (mark == std::string::npos) {
    *path = target;
    query->clear();
    return;
  }
  *path = target.substr(0, mark);
  *query = target.substr(mark + 1);
}

namespace {

int HexDigit(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

std::string UrlDecode(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (c == '+') {
      out += ' ';
    } else if (c == '%' && i + 2 < text.size() &&
               HexDigit(text[i + 1]) >= 0 && HexDigit(text[i + 2]) >= 0) {
      out += static_cast<char>(HexDigit(text[i + 1]) * 16 +
                               HexDigit(text[i + 2]));
      i += 2;
    } else {
      out += c;
    }
  }
  return out;
}

}  // namespace

std::vector<std::pair<std::string, std::string>> ParseQuery(
    const std::string& query) {
  std::vector<std::pair<std::string, std::string>> out;
  size_t start = 0;
  while (start <= query.size()) {
    size_t end = query.find('&', start);
    if (end == std::string::npos) end = query.size();
    if (end > start) {
      std::string piece = query.substr(start, end - start);
      size_t eq = piece.find('=');
      if (eq == std::string::npos) {
        out.emplace_back(UrlDecode(piece), "");
      } else {
        out.emplace_back(UrlDecode(piece.substr(0, eq)),
                         UrlDecode(piece.substr(eq + 1)));
      }
    }
    start = end + 1;
  }
  return out;
}

std::string QueryParam(
    const std::vector<std::pair<std::string, std::string>>& params,
    const std::string& key, const std::string& fallback) {
  for (const auto& [k, v] : params) {
    if (k == key) return v;
  }
  return fallback;
}

std::string FormatHttpResponse(
    int status, const std::string& content_type, const std::string& body,
    const std::vector<std::pair<std::string, std::string>>& extra_headers,
    bool keep_alive) {
  std::ostringstream out;
  out << "HTTP/1.1 " << status << " " << HttpStatusText(status) << "\r\n";
  out << "Content-Type: " << content_type << "\r\n";
  out << "Content-Length: " << body.size() << "\r\n";
  out << "Connection: " << (keep_alive ? "keep-alive" : "close") << "\r\n";
  for (const auto& [name, value] : extra_headers) {
    out << name << ": " << value << "\r\n";
  }
  out << "\r\n" << body;
  return out.str();
}

bool HttpWriteAll(int fd, const std::string& bytes) {
  size_t done = 0;
  while (done < bytes.size()) {
    ssize_t n = ::write(fd, bytes.data() + done, bytes.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    done += static_cast<size_t>(n);
  }
  return true;
}

std::optional<HttpResponse> HttpCall(
    int port, const std::string& method, const std::string& target,
    const std::string& body,
    const std::vector<std::pair<std::string, std::string>>& extra_headers) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::nullopt;
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return std::nullopt;
  }

  std::ostringstream request;
  request << method << " " << target << " HTTP/1.1\r\n"
          << "Host: 127.0.0.1:" << port << "\r\n"
          << "Connection: close\r\n";
  for (const auto& [name, value] : extra_headers) {
    request << name << ": " << value << "\r\n";
  }
  if (!body.empty() || method == "POST") {
    request << "Content-Length: " << body.size() << "\r\n";
  }
  request << "\r\n" << body;
  if (!HttpWriteAll(fd, request.str())) {
    ::close(fd);
    return std::nullopt;
  }

  // A peer that never closes the exchange fails the call instead of
  // hanging it. 60 s is far above what a tune takes in a TSan build.
  timeval timeout{};
  timeout.tv_sec = 60;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  std::string raw;
  char buf[16384];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {  // an error, or the timeout
      ::close(fd);
      return std::nullopt;
    }
    if (n == 0) break;
    raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);

  size_t header_end = raw.find("\r\n\r\n");
  if (header_end == std::string::npos) return std::nullopt;
  size_t line_end = raw.find("\r\n");
  std::string status_line = raw.substr(0, line_end);
  size_t sp1 = status_line.find(' ');
  if (sp1 == std::string::npos || status_line.rfind("HTTP/1.", 0) != 0) {
    return std::nullopt;
  }
  HttpResponse response;
  response.status = std::atoi(status_line.c_str() + sp1 + 1);
  size_t pos = line_end + 2;
  while (pos < header_end) {
    size_t eol = raw.find("\r\n", pos);
    std::string line = raw.substr(pos, eol - pos);
    pos = eol + 2;
    size_t colon = line.find(':');
    if (colon == std::string::npos) continue;
    response.headers.emplace_back(line.substr(0, colon),
                                  Trim(line.substr(colon + 1)));
  }
  response.body = raw.substr(header_end + 4);
  // A body shorter than its Content-Length was cut off.
  const std::string* length = response.FindHeader("Content-Length");
  if (length != nullptr &&
      response.body.size() < std::strtoull(length->c_str(), nullptr, 10)) {
    return std::nullopt;
  }
  return response;
}

}  // namespace serving
}  // namespace alcop
