// Minimal HTTP/1.1 message handling for the decomposition server.
//
// Implements exactly the slice the wire protocol (docs/SERVER.md) needs and
// nothing more: request parsing with Content-Length bodies, response
// serialisation, and client-side response parsing (net/http_client,
// tools/hdclient.cc). No chunked transfer encoding (rejected with 501 by
// the server), no TLS, no multipart. Both parsers are incremental and
// socket-agnostic — they consume byte chunks from any source, which is what
// the epoll readiness loop in net/server.cc drives them with and what keeps
// them unit-testable without a network (tests/http_test.cc,
// tests/http_incremental_test.cc).
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace htd::net {

struct HttpRequest {
  std::string method;  ///< upper-case, e.g. "GET"
  std::string target;  ///< raw request target, e.g. "/v1/decompose?k=3"
  std::string path;    ///< target up to '?', percent-decoded
  std::string version; ///< as sent, e.g. "HTTP/1.1"
  std::map<std::string, std::string> query;    ///< decoded query parameters
  std::map<std::string, std::string> headers;  ///< keys lower-cased
  std::string body;

  /// Query parameter lookup with a default.
  std::string QueryOr(const std::string& key, const std::string& fallback) const;

  /// True when the sender expects the connection to close after the
  /// response: an explicit `Connection: close` (case-insensitive, RFC 9110
  /// §7.6.1) or HTTP/1.0 without `Connection: keep-alive`.
  bool WantsClose() const;
};

/// ASCII case-insensitive equality (header values are operator/client input).
bool AsciiIEquals(std::string_view a, std::string_view b);

struct HttpResponse {
  int status = 200;
  /// Extra headers; Content-Length and Connection are added by the
  /// serialiser / server.
  std::vector<std::pair<std::string, std::string>> headers;
  std::string content_type = "application/json";
  std::string body;
};

/// Canonical reason phrase for the status codes the server emits.
std::string_view StatusReason(int status);

/// Serialises a response, adding Content-Type, Content-Length, and the given
/// Connection header value ("keep-alive" or "close").
std::string SerializeResponse(const HttpResponse& response,
                              std::string_view connection);

/// Head bound of both parsers: a request head past it is refused with 413,
/// a response head past it is a parse error — either way a peer cannot grow
/// the buffer by never ending its head.
inline constexpr size_t kMaxHeadBytes = 64 * 1024;

/// Percent-decodes %XX escapes and '+' (as space). Invalid escapes are kept
/// verbatim rather than rejected — query strings are operator input here.
std::string UrlDecode(std::string_view text);

/// Incremental request parser: feed Consume() whatever the socket yields
/// until it stops returning kNeedMore. One parser instance handles one
/// request; call Reset() between keep-alive requests (bytes beyond the first
/// request are retained and re-examined after Reset).
class HttpRequestParser {
 public:
  enum class State { kNeedMore, kDone, kError };

  struct Limits {
    size_t max_head_bytes = kMaxHeadBytes;
    size_t max_body_bytes = 64 * 1024 * 1024;
  };

  HttpRequestParser() = default;
  explicit HttpRequestParser(Limits limits) : limits_(limits) {}

  State Consume(std::string_view bytes);
  /// Re-examines already-buffered bytes without new input (used after Reset
  /// when the previous read pulled in the start of the next request).
  State Continue() { return Consume({}); }

  /// Bytes buffered but not yet turned into a parsed request. Non-zero
  /// after Reset() when the previous read pulled in pipelined bytes; the
  /// readiness loop uses it to tell an idle connection (nothing received)
  /// from one mid-request (header timeout applies).
  size_t buffered_bytes() const { return buffer_.size(); }

  const HttpRequest& request() const { return request_; }
  /// Moves the parsed request out (valid in state kDone) — the readiness
  /// loop hands it to the handler pool without copying a large body. The
  /// parser's own request is left moved-from; call Reset() before reuse.
  HttpRequest TakeRequest() { return std::move(request_); }
  /// Human-readable parse failure; meaningful in state kError.
  const std::string& error() const { return error_; }
  /// Suggested response status for a parse failure (400 or 413 or 501).
  int error_status() const { return error_status_; }

  /// Clears the parsed request but keeps unconsumed buffered bytes (HTTP
  /// pipelining / back-to-back keep-alive requests).
  void Reset();

 private:
  State Fail(int status, std::string message);
  bool ParseHead(std::string_view head);

  Limits limits_;
  std::string buffer_;
  bool head_done_ = false;
  /// Position the head-terminator scan resumes from, so byte-at-a-time
  /// delivery costs O(total) rather than re-scanning the whole buffer per
  /// chunk (the epoll loop feeds the parser arbitrarily fragmented reads).
  size_t head_scan_ = 0;
  size_t body_expected_ = 0;
  HttpRequest request_;
  std::string error_;
  int error_status_ = 400;
  State state_ = State::kNeedMore;
};

/// Incremental HTTP/1.x RESPONSE parser, the client-side mirror of
/// HttpRequestParser: feed Consume() whatever the socket yields. A response
/// carrying Content-Length completes as soon as that many body bytes arrive
/// — the caller need not wait for the server to close the connection.
/// Responses without Content-Length are framed by connection close: call
/// Finish() at orderly EOF to terminate the body. The head is bounded by
/// kMaxHeadBytes; the body only by its Content-Length (an export blob may
/// exceed any request body limit).
class HttpResponseParser {
 public:
  enum class State { kNeedMore, kDone, kError };

  State Consume(std::string_view bytes);
  /// Orderly EOF from the transport. Completes a close-framed body;
  /// an EOF mid-head or short of a promised Content-Length is an error
  /// (truncated response).
  State Finish();

  int status() const { return status_; }
  /// Header keys lower-cased.
  const std::map<std::string, std::string>& headers() const { return headers_; }
  const std::string& body() const { return body_; }
  const std::string& error() const { return error_; }

 private:
  State Fail(std::string message);
  bool ParseHead(std::string_view head);

  std::string buffer_;
  size_t head_scan_ = 0;
  bool head_done_ = false;
  bool have_length_ = false;
  size_t body_expected_ = 0;
  int status_ = 0;
  std::map<std::string, std::string> headers_;
  std::string body_;
  std::string error_;
  State state_ = State::kNeedMore;
};

/// Parses a complete serialised response (status line, headers, body) as
/// read by a Connection: close client. Returns false on malformed input.
/// If Content-Length is present, the body is truncated/validated against it;
/// otherwise everything after the blank line is the body.
bool ParseHttpResponseBlob(std::string_view blob, int* status,
                           std::map<std::string, std::string>* headers,
                           std::string* body);

}  // namespace htd::net
