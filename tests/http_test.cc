// net/http.h: incremental request parsing, limits, serialisation, and the
// client-side response-blob parser. Pure byte-level tests — no sockets.
#include "net/http.h"

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <string>

namespace htd::net {
namespace {

using State = HttpRequestParser::State;

TEST(HttpParserTest, ParsesSimpleGet) {
  HttpRequestParser parser;
  EXPECT_EQ(parser.Consume("GET /v1/stats HTTP/1.1\r\nHost: x\r\n\r\n"),
            State::kDone);
  EXPECT_EQ(parser.request().method, "GET");
  EXPECT_EQ(parser.request().target, "/v1/stats");
  EXPECT_EQ(parser.request().path, "/v1/stats");
  EXPECT_EQ(parser.request().headers.at("host"), "x");
  EXPECT_TRUE(parser.request().body.empty());
}

TEST(HttpParserTest, ParsesPostWithBody) {
  HttpRequestParser parser;
  std::string request =
      "POST /v1/decompose?k=3&timeout=1.5 HTTP/1.1\r\n"
      "Content-Length: 11\r\n\r\n"
      "e1(a,b,c).\n";
  EXPECT_EQ(parser.Consume(request), State::kDone);
  EXPECT_EQ(parser.request().method, "POST");
  EXPECT_EQ(parser.request().path, "/v1/decompose");
  EXPECT_EQ(parser.request().QueryOr("k", ""), "3");
  EXPECT_EQ(parser.request().QueryOr("timeout", ""), "1.5");
  EXPECT_EQ(parser.request().QueryOr("absent", "d"), "d");
  EXPECT_EQ(parser.request().body, "e1(a,b,c).\n");
}

TEST(HttpParserTest, AcceptsByteAtATimeDelivery) {
  std::string request =
      "POST /x HTTP/1.1\r\nContent-Length: 4\r\n\r\nabcd";
  HttpRequestParser parser;
  State state = State::kNeedMore;
  for (char c : request) {
    ASSERT_NE(state, State::kError);
    state = parser.Consume(std::string_view(&c, 1));
  }
  EXPECT_EQ(state, State::kDone);
  EXPECT_EQ(parser.request().body, "abcd");
}

TEST(HttpParserTest, KeepAlivePipelining) {
  HttpRequestParser parser;
  // Two requests arrive in one read; Reset keeps the tail buffered.
  std::string both =
      "GET /first HTTP/1.1\r\n\r\nGET /second HTTP/1.1\r\n\r\n";
  EXPECT_EQ(parser.Consume(both), State::kDone);
  EXPECT_EQ(parser.request().path, "/first");
  parser.Reset();
  EXPECT_EQ(parser.Continue(), State::kDone);
  EXPECT_EQ(parser.request().path, "/second");
}

TEST(HttpParserTest, UrlDecoding) {
  EXPECT_EQ(UrlDecode("a%20b+c%2Fd"), "a b c/d");
  EXPECT_EQ(UrlDecode("no-escapes"), "no-escapes");
  EXPECT_EQ(UrlDecode("bad%zz"), "bad%zz");  // invalid escape kept verbatim
  EXPECT_EQ(UrlDecode("truncated%2"), "truncated%2");
}

TEST(HttpParserTest, RejectsMalformedRequestLine) {
  HttpRequestParser parser;
  EXPECT_EQ(parser.Consume("NONSENSE\r\n\r\n"), State::kError);
  EXPECT_EQ(parser.error_status(), 400);
}

TEST(HttpParserTest, RejectsNonHttpVersion) {
  HttpRequestParser parser;
  EXPECT_EQ(parser.Consume("GET / SPDY/99\r\n\r\n"), State::kError);
}

TEST(HttpParserTest, RejectsChunkedTransferEncoding) {
  HttpRequestParser parser;
  EXPECT_EQ(parser.Consume("POST /x HTTP/1.1\r\n"
                           "Transfer-Encoding: chunked\r\n\r\n"),
            State::kError);
  EXPECT_EQ(parser.error_status(), 501);
}

TEST(HttpParserTest, RejectsOversizedBody) {
  HttpRequestParser::Limits limits;
  limits.max_body_bytes = 16;
  HttpRequestParser parser(limits);
  EXPECT_EQ(parser.Consume("POST /x HTTP/1.1\r\nContent-Length: 17\r\n\r\n"),
            State::kError);
  EXPECT_EQ(parser.error_status(), 413);
}

TEST(HttpParserTest, RejectsOversizedHead) {
  HttpRequestParser::Limits limits;
  limits.max_head_bytes = 64;
  HttpRequestParser parser(limits);
  std::string head = "GET /" + std::string(256, 'a');  // never terminated
  EXPECT_EQ(parser.Consume(head), State::kError);
  EXPECT_EQ(parser.error_status(), 413);
}

TEST(HttpParserTest, RejectsMalformedContentLength) {
  HttpRequestParser parser;
  EXPECT_EQ(parser.Consume("POST /x HTTP/1.1\r\nContent-Length: 12abc\r\n\r\n"),
            State::kError);
}

TEST(HttpParserTest, ToleratesBareLfSeparators) {
  HttpRequestParser parser;
  EXPECT_EQ(parser.Consume("GET /lf HTTP/1.1\nHost: y\n\n"), State::kDone);
  EXPECT_EQ(parser.request().headers.at("host"), "y");
}

TEST(HttpResponseTest, SerializeAndReparse) {
  HttpResponse response;
  response.status = 202;
  response.body = "{\"job\": \"j1\"}\n";
  response.headers.emplace_back("Retry-After", "1");
  std::string wire = SerializeResponse(response, "close");

  int status = 0;
  std::map<std::string, std::string> headers;
  std::string body;
  ASSERT_TRUE(ParseHttpResponseBlob(wire, &status, &headers, &body));
  EXPECT_EQ(status, 202);
  EXPECT_EQ(headers.at("retry-after"), "1");
  EXPECT_EQ(headers.at("connection"), "close");
  EXPECT_EQ(body, response.body);
}

TEST(HttpResponseTest, RejectsAnUnterminatedHeadPastTheLimit) {
  // A peer that never ends its head must not grow the client's buffer for
  // as long as it keeps sending: past kMaxHeadBytes the parse fails.
  HttpResponseParser parser;
  HttpResponseParser::State state = parser.Consume("HTTP/1.1 200 OK\r\n");
  const std::string filler = "X-Filler: " + std::string(1000, 'x') + "\r\n";
  for (size_t sent = 0; sent <= kMaxHeadBytes + filler.size() &&
                        state == HttpResponseParser::State::kNeedMore;
       sent += filler.size()) {
    state = parser.Consume(filler);
  }
  EXPECT_EQ(state, HttpResponseParser::State::kError);

  // Bodies stay framed by Content-Length alone: a large one behind a small
  // head parses.
  const std::string body(4 * kMaxHeadBytes, 'b');
  HttpResponseParser large;
  EXPECT_EQ(large.Consume("HTTP/1.1 200 OK\r\nContent-Length: " +
                          std::to_string(body.size()) + "\r\n\r\n" + body),
            HttpResponseParser::State::kDone);
  EXPECT_EQ(large.body().size(), body.size());
}

TEST(HttpResponseTest, BlobParserRejectsGarbage) {
  int status = 0;
  std::map<std::string, std::string> headers;
  std::string body;
  EXPECT_FALSE(ParseHttpResponseBlob("not http at all", &status, &headers, &body));
  EXPECT_FALSE(ParseHttpResponseBlob("HTTP/1.1 abc\r\n\r\n", &status, &headers, &body));
  // Body shorter than Content-Length promises: truncated response.
  EXPECT_FALSE(ParseHttpResponseBlob(
      "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc", &status, &headers, &body));
}

TEST(HttpParserTest, ConnectionCloseSemantics) {
  HttpRequestParser parser;
  ASSERT_EQ(parser.Consume("GET / HTTP/1.1\r\nConnection: Close\r\n\r\n"),
            State::kDone);
  EXPECT_EQ(parser.request().version, "HTTP/1.1");
  EXPECT_TRUE(parser.request().WantsClose()) << "header values are case-insensitive";

  parser.Reset();
  ASSERT_EQ(parser.Consume("GET / HTTP/1.1\r\n\r\n"), State::kDone);
  EXPECT_FALSE(parser.request().WantsClose()) << "HTTP/1.1 defaults to keep-alive";

  parser.Reset();
  ASSERT_EQ(parser.Consume("GET / HTTP/1.0\r\n\r\n"), State::kDone);
  EXPECT_TRUE(parser.request().WantsClose()) << "HTTP/1.0 defaults to close";

  parser.Reset();
  ASSERT_EQ(parser.Consume("GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"),
            State::kDone);
  EXPECT_FALSE(parser.request().WantsClose());
}

TEST(HttpParserTest, ConnectionTokenLists) {
  // RFC 7230 §6.1: the Connection header is a comma-separated token list.
  // An HTTP/1.0 client sending "keep-alive, upgrade" used to fall through
  // to the version default and get its connection closed mid-stream.
  HttpRequestParser parser;
  ASSERT_EQ(parser.Consume("GET / HTTP/1.0\r\n"
                           "Connection: keep-alive, upgrade\r\n\r\n"),
            State::kDone);
  EXPECT_FALSE(parser.request().WantsClose());

  parser.Reset();
  ASSERT_EQ(parser.Consume("GET / HTTP/1.1\r\n"
                           "Connection: Upgrade , Close\r\n\r\n"),
            State::kDone);
  EXPECT_TRUE(parser.request().WantsClose())
      << "close anywhere in the list closes, case-insensitively";

  parser.Reset();
  ASSERT_EQ(parser.Consume("GET / HTTP/1.0\r\n"
                           "Connection: close, keep-alive\r\n\r\n"),
            State::kDone);
  EXPECT_TRUE(parser.request().WantsClose()) << "close wins over keep-alive";

  parser.Reset();
  ASSERT_EQ(parser.Consume("GET / HTTP/1.1\r\n"
                           "Connection: upgrade\r\n\r\n"),
            State::kDone);
  EXPECT_FALSE(parser.request().WantsClose())
      << "unrecognised tokens only: fall back to the version default";
}

TEST(HttpResponseTest, HandlerHeadersNeverDuplicateFixedOnes) {
  // SerializeResponse owns Content-Type / Content-Length / Connection; a
  // handler that also sets them (e.g. a proxy copying upstream headers)
  // used to produce a duplicate-header response.
  HttpResponse response;
  response.body = "ok";
  response.headers.emplace_back("content-length", "999");
  response.headers.emplace_back("Content-Type", "text/plain");
  response.headers.emplace_back("CONNECTION", "keep-alive");
  response.headers.emplace_back("Retry-After", "2");
  std::string wire = SerializeResponse(response, "close");

  auto count = [&wire](const std::string& needle) {
    size_t n = 0;
    for (size_t pos = wire.find(needle); pos != std::string::npos;
         pos = wire.find(needle, pos + 1)) {
      ++n;
    }
    return n;
  };
  // Lower-case the wire once so the count is case-insensitive.
  for (char& c : wire) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  EXPECT_EQ(count("content-length:"), 1u) << wire;
  EXPECT_EQ(count("content-type:"), 1u) << wire;
  EXPECT_EQ(count("connection:"), 1u) << wire;
  EXPECT_EQ(count("retry-after:"), 1u) << "non-colliding headers still pass";

  // The serialiser's values (not the handler's stale copies) are the ones
  // on the wire.
  int status = 0;
  std::map<std::string, std::string> headers;
  std::string body;
  ASSERT_TRUE(ParseHttpResponseBlob(SerializeResponse(response, "close"),
                                    &status, &headers, &body));
  EXPECT_EQ(headers.at("content-length"), "2");
  EXPECT_EQ(headers.at("connection"), "close");
  EXPECT_EQ(body, "ok");
}

TEST(HttpParserTest, AsciiIEquals) {
  EXPECT_TRUE(AsciiIEquals("Close", "close"));
  EXPECT_TRUE(AsciiIEquals("", ""));
  EXPECT_FALSE(AsciiIEquals("close", "clos"));
  EXPECT_FALSE(AsciiIEquals("keep-alive", "keepalive"));
}

TEST(HttpResponseTest, StatusReasons) {
  EXPECT_EQ(StatusReason(200), "OK");
  EXPECT_EQ(StatusReason(429), "Too Many Requests");
  EXPECT_EQ(StatusReason(777), "Unknown");
}

}  // namespace
}  // namespace htd::net
