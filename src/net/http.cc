#include "net/http.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <optional>

namespace htd::net {

namespace {

std::string ToLower(std::string_view text) {
  std::string out(text);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

std::string_view Trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    text.remove_prefix(1);
  }
  while (!text.empty() && (text.back() == ' ' || text.back() == '\t' ||
                           text.back() == '\r')) {
    text.remove_suffix(1);
  }
  return text;
}

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Splits the request target into a decoded path and query map.
void ParseTarget(const std::string& target, std::string* path,
                 std::map<std::string, std::string>* query) {
  size_t qpos = target.find('?');
  *path = UrlDecode(target.substr(0, qpos));
  if (qpos == std::string::npos) return;
  std::string_view rest = std::string_view(target).substr(qpos + 1);
  while (!rest.empty()) {
    size_t amp = rest.find('&');
    std::string_view pair = rest.substr(0, amp);
    rest = amp == std::string_view::npos ? std::string_view()
                                         : rest.substr(amp + 1);
    if (pair.empty()) continue;
    size_t eq = pair.find('=');
    std::string key = UrlDecode(pair.substr(0, eq));
    std::string value =
        eq == std::string_view::npos ? "" : UrlDecode(pair.substr(eq + 1));
    (*query)[key] = value;
  }
}

/// The head framing both parsers share: resumes the scan of `buffer` for
/// the blank line that ends the head at `*scan` (backing up 3 bytes so a
/// terminator straddling two chunks is seen, which keeps byte-at-a-time
/// delivery O(total)). kTooLarge once the head exceeds `max_head_bytes`,
/// terminated or not, so the verdict does not depend on the chunking; on
/// kHead, the head is the first `*head_end` bytes, followed by a terminator
/// of `*terminator` bytes.
enum class HeadScan { kNeedMore, kHead, kTooLarge };
HeadScan ScanHead(const std::string& buffer, size_t max_head_bytes,
                  size_t* scan, size_t* head_end, size_t* terminator) {
  const size_t from = *scan > 3 ? *scan - 3 : 0;
  *scan = buffer.size();
  *head_end = buffer.find("\r\n\r\n", from);
  *terminator = 4;
  if (*head_end == std::string::npos) {
    *head_end = buffer.find("\n\n", from);
    *terminator = 2;
  }
  if (*head_end == std::string::npos) {
    return buffer.size() > max_head_bytes ? HeadScan::kTooLarge
                                          : HeadScan::kNeedMore;
  }
  return *head_end > max_head_bytes ? HeadScan::kTooLarge : HeadScan::kHead;
}

/// The head's first line (request or status line), trimmed.
std::string_view FirstLine(std::string_view head) {
  return Trim(head.substr(0, head.find('\n')));
}

/// The header fields after the head's first line, into `headers` (keys
/// lower-cased, values trimmed). False on a line without a colon.
bool ParseHeaderFields(std::string_view head,
                       std::map<std::string, std::string>* headers) {
  size_t line_end = head.find('\n');
  while (line_end != std::string_view::npos) {
    const size_t start = line_end + 1;
    line_end = head.find('\n', start);
    const std::string_view line = Trim(head.substr(
        start, line_end == std::string_view::npos ? head.size() - start
                                                  : line_end - start));
    if (line.empty()) continue;
    const size_t colon = line.find(':');
    if (colon == std::string_view::npos) return false;
    (*headers)[ToLower(Trim(line.substr(0, colon)))] =
        std::string(Trim(line.substr(colon + 1)));
  }
  return true;
}

/// The Content-Length header into `*length` (left unset when absent).
/// False when it is not a plain decimal number.
bool ParseContentLength(const std::map<std::string, std::string>& headers,
                        std::optional<unsigned long long>* length) {
  auto it = headers.find("content-length");
  if (it == headers.end()) return true;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0') return false;
  *length = parsed;
  return true;
}

}  // namespace

std::string HttpRequest::QueryOr(const std::string& key,
                                 const std::string& fallback) const {
  auto it = query.find(key);
  return it == query.end() ? fallback : it->second;
}

bool AsciiIEquals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool HttpRequest::WantsClose() const {
  auto it = headers.find("connection");
  if (it != headers.end()) {
    // The Connection header is a comma-separated token list (RFC 7230 §6.1):
    // "keep-alive, upgrade" must still read as keep-alive. `close` wins over
    // `keep-alive` when a confused client sends both.
    bool keep_alive = false;
    std::string_view rest = it->second;
    while (!rest.empty()) {
      size_t comma = rest.find(',');
      std::string_view token = Trim(rest.substr(0, comma));
      rest = comma == std::string_view::npos ? std::string_view()
                                             : rest.substr(comma + 1);
      if (AsciiIEquals(token, "close")) return true;
      if (AsciiIEquals(token, "keep-alive")) keep_alive = true;
    }
    if (keep_alive) return false;
  }
  // No (recognised) Connection header: HTTP/1.0 defaults to close,
  // HTTP/1.1+ to keep-alive.
  return version == "HTTP/1.0";
}

std::string_view StatusReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 202: return "Accepted";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 409: return "Conflict";
    case 412: return "Precondition Failed";
    case 413: return "Payload Too Large";
    case 421: return "Misdirected Request";
    case 429: return "Too Many Requests";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 502: return "Bad Gateway";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    case 508: return "Loop Detected";
    default: return "Unknown";
  }
}

std::string SerializeResponse(const HttpResponse& response,
                              std::string_view connection) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " ";
  out += StatusReason(response.status);
  out += "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  out += "Connection: ";
  out += connection;
  out += "\r\n";
  for (const auto& [key, value] : response.headers) {
    // The three fixed headers above are owned by the serialiser; a handler
    // that also sets one (e.g. a proxied response copying Content-Length)
    // must not produce a duplicate-header message.
    if (AsciiIEquals(key, "content-type") || AsciiIEquals(key, "content-length") ||
        AsciiIEquals(key, "connection")) {
      continue;
    }
    out += key + ": " + value + "\r\n";
  }
  out += "\r\n";
  out += response.body;
  return out;
}

std::string UrlDecode(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (c == '+') {
      out.push_back(' ');
    } else if (c == '%' && i + 2 < text.size() && HexValue(text[i + 1]) >= 0 &&
               HexValue(text[i + 2]) >= 0) {
      out.push_back(static_cast<char>(HexValue(text[i + 1]) * 16 +
                                      HexValue(text[i + 2])));
      i += 2;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

HttpRequestParser::State HttpRequestParser::Fail(int status, std::string message) {
  error_status_ = status;
  error_ = std::move(message);
  state_ = State::kError;
  return state_;
}

bool HttpRequestParser::ParseHead(std::string_view head) {
  // Request line: METHOD SP target SP HTTP/1.x
  const std::string_view request_line = FirstLine(head);
  size_t sp1 = request_line.find(' ');
  size_t sp2 = request_line.rfind(' ');
  if (sp1 == std::string_view::npos || sp2 == sp1) {
    Fail(400, "malformed request line");
    return false;
  }
  request_.method = std::string(request_line.substr(0, sp1));
  request_.target = std::string(Trim(request_line.substr(sp1 + 1, sp2 - sp1 - 1)));
  std::string_view version = request_line.substr(sp2 + 1);
  if (version.substr(0, 7) != "HTTP/1.") {
    Fail(400, "unsupported HTTP version");
    return false;
  }
  request_.version = std::string(version);
  if (request_.method.empty() || request_.target.empty() ||
      request_.target[0] != '/') {
    Fail(400, "malformed request target");
    return false;
  }
  ParseTarget(request_.target, &request_.path, &request_.query);

  if (!ParseHeaderFields(head, &request_.headers)) {
    Fail(400, "malformed header line");
    return false;
  }
  if (request_.headers.count("transfer-encoding") != 0) {
    Fail(501, "transfer-encoding not supported; send Content-Length");
    return false;
  }
  std::optional<unsigned long long> length;
  if (!ParseContentLength(request_.headers, &length)) {
    Fail(400, "malformed Content-Length");
    return false;
  }
  if (length.value_or(0) > limits_.max_body_bytes) {
    Fail(413, "body exceeds limit of " +
                  std::to_string(limits_.max_body_bytes) + " bytes");
    return false;
  }
  body_expected_ = static_cast<size_t>(length.value_or(0));
  return true;
}

HttpRequestParser::State HttpRequestParser::Consume(std::string_view bytes) {
  if (state_ != State::kNeedMore) return state_;
  buffer_.append(bytes.data(), bytes.size());
  if (!head_done_) {
    size_t head_end, terminator;
    const HeadScan scan = ScanHead(buffer_, limits_.max_head_bytes, &head_scan_,
                                   &head_end, &terminator);
    if (scan == HeadScan::kNeedMore) return State::kNeedMore;
    if (scan == HeadScan::kTooLarge) return Fail(413, "request head exceeds limit");
    if (!ParseHead(std::string_view(buffer_).substr(0, head_end))) return state_;
    buffer_.erase(0, head_end + terminator);
    head_done_ = true;
  }
  if (buffer_.size() < body_expected_) return State::kNeedMore;
  request_.body = buffer_.substr(0, body_expected_);
  buffer_.erase(0, body_expected_);
  state_ = State::kDone;
  return state_;
}

void HttpRequestParser::Reset() {
  request_ = HttpRequest();
  head_done_ = false;
  head_scan_ = 0;
  body_expected_ = 0;
  error_.clear();
  error_status_ = 400;
  state_ = State::kNeedMore;
}

HttpResponseParser::State HttpResponseParser::Fail(std::string message) {
  error_ = std::move(message);
  state_ = State::kError;
  return state_;
}

bool HttpResponseParser::ParseHead(std::string_view head) {
  const std::string_view status_line = FirstLine(head);
  if (status_line.substr(0, 5) != "HTTP/") {
    Fail("malformed status line");
    return false;
  }
  size_t sp = status_line.find(' ');
  if (sp == std::string_view::npos || sp + 4 > status_line.size()) {
    Fail("malformed status line");
    return false;
  }
  status_ = std::atoi(std::string(status_line.substr(sp + 1, 3)).c_str());
  if (status_ < 100 || status_ > 599) {
    Fail("implausible status code");
    return false;
  }
  if (!ParseHeaderFields(head, &headers_)) {
    Fail("malformed header line");
    return false;
  }
  std::optional<unsigned long long> length;
  if (!ParseContentLength(headers_, &length)) {
    Fail("malformed Content-Length");
    return false;
  }
  have_length_ = length.has_value();
  body_expected_ = static_cast<size_t>(length.value_or(0));
  return true;
}

HttpResponseParser::State HttpResponseParser::Consume(std::string_view bytes) {
  if (state_ != State::kNeedMore) return state_;
  buffer_.append(bytes.data(), bytes.size());
  if (!head_done_) {
    size_t head_end, terminator;
    const HeadScan scan =
        ScanHead(buffer_, kMaxHeadBytes, &head_scan_, &head_end, &terminator);
    if (scan == HeadScan::kNeedMore) return State::kNeedMore;
    if (scan == HeadScan::kTooLarge) return Fail("response head exceeds limit");
    if (!ParseHead(std::string_view(buffer_).substr(0, head_end))) return state_;
    buffer_.erase(0, head_end + terminator);
    head_done_ = true;
  }
  // A Content-Length body completes the moment the promised bytes are in
  // (bytes beyond it are ignored — one exchange per parser); a length-less
  // body is framed by connection close and completes in Finish().
  if (!have_length_ || buffer_.size() < body_expected_) return State::kNeedMore;
  body_ = buffer_.substr(0, body_expected_);
  buffer_.clear();
  state_ = State::kDone;
  return state_;
}

HttpResponseParser::State HttpResponseParser::Finish() {
  if (state_ != State::kNeedMore) return state_;
  if (!head_done_) return Fail("connection closed mid-head");
  if (have_length_) return Fail("connection closed short of Content-Length");
  body_ = std::move(buffer_);
  buffer_.clear();
  state_ = State::kDone;
  return state_;
}

bool ParseHttpResponseBlob(std::string_view blob, int* status,
                           std::map<std::string, std::string>* headers,
                           std::string* body) {
  HttpResponseParser parser;
  parser.Consume(blob);
  if (parser.Finish() != HttpResponseParser::State::kDone) return false;
  *status = parser.status();
  *headers = parser.headers();
  *body = parser.body();
  return true;
}

}  // namespace htd::net
