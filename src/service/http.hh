/**
 * @file
 * Minimal HTTP/1.1 framing over loopback TCP sockets — just enough
 * protocol for the sweep service (service/daemon.hh) and its tests:
 * request-line + headers + Content-Length bodies on the way in,
 * fixed or chunked (Transfer-Encoding: chunked) responses on the way
 * out, one request per connection (the server always answers
 * `Connection: close`).
 *
 * Writes use MSG_NOSIGNAL, so a client that disconnects mid-stream
 * surfaces as a failed write (EPIPE/ECONNRESET) instead of killing
 * the process — the daemon turns that into a cooperative sweep
 * cancellation.
 *
 * The client half (connectTcp/httpFetch) exists for the multi-client
 * load generator and the service tests; it understands both framed
 * and chunked response bodies.
 */

#ifndef ELFSIM_SERVICE_HTTP_HH
#define ELFSIM_SERVICE_HTTP_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace elfsim {
namespace service {

/** One parsed request (headers lower-cased). */
struct HttpRequest
{
    std::string method;
    std::string path;
    std::map<std::string, std::string> headers;
    std::string body;
};

/** One parsed response (client side; body de-chunked). */
struct HttpResponse
{
    int status = 0;
    std::map<std::string, std::string> headers;
    std::string body;
};

/** Bind + listen on host:port (port 0 = ephemeral); returns the
 *  listening fd. Throws IoError on failure. */
int listenTcp(const std::string &host, std::uint16_t port);

/** The port a listening socket actually bound (ephemeral binds). */
std::uint16_t boundPort(int fd);

/** Connect to host:port; returns the fd. Throws IoError. */
int connectTcp(const std::string &host, std::uint16_t port);

/** Write all of @a data (MSG_NOSIGNAL); false on any socket error. */
bool writeAll(int fd, std::string_view data);

/**
 * Read one request off @a fd. Returns false with @a err filled on
 * malformed framing or a closed connection; over-long requests
 * (> 16 MiB body) are rejected rather than buffered.
 */
bool readHttpRequest(int fd, HttpRequest &out, std::string &err);

/** Write a complete fixed-length response (Connection: close). */
bool writeHttpResponse(int fd, int status, std::string_view reason,
                       std::string_view contentType,
                       std::string_view body);

/**
 * Incremental chunked response: header() once, then any number of
 * write()s (each one chunk), then finish() (the terminating
 * zero-chunk). After the first failed write every later call is a
 * cheap no-op and failed() reports true — the caller polls it to
 * notice a client disconnect.
 */
class ChunkedResponse
{
  public:
    explicit ChunkedResponse(int fd) : fd(fd) {}

    bool header(int status, std::string_view reason,
                std::string_view contentType);
    bool write(std::string_view data);
    bool finish();

    bool failed() const { return bad; }

  private:
    int fd;
    bool bad = false;
};

/**
 * Client convenience: one connect + request + response + close round
 * trip. Throws IoError when the server is unreachable or the
 * response is unparseable.
 */
HttpResponse httpFetch(const std::string &host, std::uint16_t port,
                       const std::string &method,
                       const std::string &path,
                       std::string_view body = {});

/** Read + parse one response from an already-connected socket (the
 *  multi-request client path). Throws IoError on malformed data. */
HttpResponse readHttpResponse(int fd);

} // namespace service
} // namespace elfsim

#endif // ELFSIM_SERVICE_HTTP_HH
