#include "service/http.hh"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "common/error.hh"

namespace elfsim {
namespace service {

namespace {

constexpr std::size_t kMaxHeaderBytes = 64 * 1024;
constexpr std::size_t kMaxBodyBytes = 16 * 1024 * 1024;

std::string
lowered(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
        return char(std::tolower(c));
    });
    return s;
}

std::string
trimmed(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

sockaddr_in
loopbackAddr(const std::string &host, std::uint16_t port)
{
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1)
        throw IoError(errorf("bad listen address '%s'", host.c_str()));
    return addr;
}

/** Read up to @a n bytes; 0 on orderly close, -1 on error. */
ssize_t
readSome(int fd, char *buf, std::size_t n)
{
    for (;;) {
        const ssize_t r = ::recv(fd, buf, n, 0);
        if (r < 0 && errno == EINTR)
            continue;
        return r;
    }
}

/** Split "HTTP/1.1 200 OK" / header block parsing shared by the
 *  request and response readers: read until CRLFCRLF. Returns false
 *  on close/overflow; @a head gets the header block, @a rest any
 *  body bytes already read. */
bool
readHead(int fd, std::string &head, std::string &rest)
{
    std::string buf;
    char tmp[4096];
    for (;;) {
        const std::size_t at = buf.find("\r\n\r\n");
        if (at != std::string::npos) {
            head = buf.substr(0, at);
            rest = buf.substr(at + 4);
            return true;
        }
        if (buf.size() > kMaxHeaderBytes)
            return false;
        const ssize_t r = readSome(fd, tmp, sizeof tmp);
        if (r <= 0)
            return false;
        buf.append(tmp, std::size_t(r));
    }
}

/** Parse "Key: value" lines into a lower-cased header map. */
bool
parseHeaderLines(const std::string &head, std::size_t firstLineEnd,
                 std::map<std::string, std::string> &out)
{
    std::size_t pos = firstLineEnd;
    while (pos < head.size()) {
        std::size_t eol = head.find("\r\n", pos);
        if (eol == std::string::npos)
            eol = head.size();
        const std::string line = head.substr(pos, eol - pos);
        pos = eol + 2;
        if (line.empty())
            continue;
        const std::size_t colon = line.find(':');
        if (colon == std::string::npos)
            return false;
        out[lowered(trimmed(line.substr(0, colon)))] =
            trimmed(line.substr(colon + 1));
    }
    return true;
}

/** Read exactly @a n more bytes into @a body (which may already hold
 *  a prefix from the header read). */
bool
readBody(int fd, std::string &body, std::size_t n)
{
    if (n > kMaxBodyBytes)
        return false;
    char tmp[4096];
    while (body.size() < n) {
        const std::size_t want =
            std::min(sizeof tmp, n - body.size());
        const ssize_t r = readSome(fd, tmp, want);
        if (r <= 0)
            return false;
        body.append(tmp, std::size_t(r));
    }
    body.resize(n);
    return true;
}

/** De-chunk a Transfer-Encoding: chunked body, reading more bytes
 *  from @a fd as needed; @a raw holds what was already buffered. */
bool
readChunked(int fd, std::string raw, std::string &out)
{
    char tmp[4096];
    std::size_t pos = 0;
    for (;;) {
        // Ensure one full "size CRLF" line is buffered.
        std::size_t eol;
        while ((eol = raw.find("\r\n", pos)) == std::string::npos) {
            const ssize_t r = readSome(fd, tmp, sizeof tmp);
            if (r <= 0)
                return false;
            raw.append(tmp, std::size_t(r));
        }
        char *end = nullptr;
        const unsigned long long n =
            std::strtoull(raw.c_str() + pos, &end, 16);
        if (end == raw.c_str() + pos)
            return false;
        pos = eol + 2;
        if (n == 0)
            return true; // ignore trailers
        if (out.size() + n > kMaxBodyBytes)
            return false;
        while (raw.size() - pos < n + 2) {
            const ssize_t r = readSome(fd, tmp, sizeof tmp);
            if (r <= 0)
                return false;
            raw.append(tmp, std::size_t(r));
        }
        out.append(raw, pos, n);
        pos += n + 2; // skip the chunk's trailing CRLF
    }
}

} // namespace

int
listenTcp(const std::string &host, std::uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throw IoError(errorf("socket: %s", std::strerror(errno)));
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    sockaddr_in addr = loopbackAddr(host, port);
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof addr) != 0) {
        const int e = errno;
        ::close(fd);
        throw IoError(errorf("bind %s:%u: %s", host.c_str(),
                             unsigned(port), std::strerror(e)));
    }
    if (::listen(fd, 64) != 0) {
        const int e = errno;
        ::close(fd);
        throw IoError(errorf("listen: %s", std::strerror(e)));
    }
    return fd;
}

std::uint16_t
boundPort(int fd)
{
    sockaddr_in addr{};
    socklen_t len = sizeof addr;
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&addr),
                      &len) != 0)
        throw IoError(errorf("getsockname: %s", std::strerror(errno)));
    return ntohs(addr.sin_port);
}

int
connectTcp(const std::string &host, std::uint16_t port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throw IoError(errorf("socket: %s", std::strerror(errno)));
    sockaddr_in addr = loopbackAddr(host, port);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof addr) != 0) {
        const int e = errno;
        ::close(fd);
        throw IoError(errorf("connect %s:%u: %s", host.c_str(),
                             unsigned(port), std::strerror(e)));
    }
    return fd;
}

bool
writeAll(int fd, std::string_view data)
{
    while (!data.empty()) {
        const ssize_t w =
            ::send(fd, data.data(), data.size(), MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        data.remove_prefix(std::size_t(w));
    }
    return true;
}

bool
readHttpRequest(int fd, HttpRequest &out, std::string &err)
{
    std::string head, rest;
    if (!readHead(fd, head, rest)) {
        err = "connection closed or header block too large";
        return false;
    }
    std::size_t eol = head.find("\r\n");
    if (eol == std::string::npos)
        eol = head.size();
    const std::string reqLine = head.substr(0, eol);
    const std::size_t sp1 = reqLine.find(' ');
    const std::size_t sp2 =
        sp1 == std::string::npos ? std::string::npos
                                 : reqLine.find(' ', sp1 + 1);
    if (sp1 == std::string::npos || sp2 == std::string::npos ||
        reqLine.compare(sp2 + 1, 5, "HTTP/") != 0) {
        err = "malformed request line";
        return false;
    }
    out.method = reqLine.substr(0, sp1);
    out.path = reqLine.substr(sp1 + 1, sp2 - sp1 - 1);
    if (!parseHeaderLines(head, eol + 2, out.headers)) {
        err = "malformed header line";
        return false;
    }
    out.body = std::move(rest);
    const auto cl = out.headers.find("content-length");
    if (cl != out.headers.end()) {
        char *end = nullptr;
        const unsigned long long n =
            std::strtoull(cl->second.c_str(), &end, 10);
        if (end == cl->second.c_str() || *end != '\0' ||
            n > kMaxBodyBytes) {
            err = "bad content-length";
            return false;
        }
        if (!readBody(fd, out.body, std::size_t(n))) {
            err = "short request body";
            return false;
        }
    } else if (!out.body.empty()) {
        err = "body without content-length";
        return false;
    }
    return true;
}

bool
writeHttpResponse(int fd, int status, std::string_view reason,
                  std::string_view contentType, std::string_view body)
{
    std::string head;
    head.append("HTTP/1.1 ").append(std::to_string(status));
    head.append(" ").append(reason);
    head.append("\r\nContent-Type: ").append(contentType);
    head.append("\r\nContent-Length: ")
        .append(std::to_string(body.size()));
    head.append("\r\nConnection: close\r\n\r\n");
    return writeAll(fd, head) && writeAll(fd, body);
}

bool
ChunkedResponse::header(int status, std::string_view reason,
                        std::string_view contentType)
{
    if (bad)
        return false;
    std::string head;
    head.append("HTTP/1.1 ").append(std::to_string(status));
    head.append(" ").append(reason);
    head.append("\r\nContent-Type: ").append(contentType);
    head.append("\r\nTransfer-Encoding: chunked\r\n"
                "Connection: close\r\n\r\n");
    bad = !writeAll(fd, head);
    return !bad;
}

bool
ChunkedResponse::write(std::string_view data)
{
    if (bad)
        return false;
    if (data.empty())
        return true;
    char size[32];
    const int n =
        std::snprintf(size, sizeof size, "%zx\r\n", data.size());
    bad = n <= 0 ||
          !writeAll(fd, std::string_view(size, std::size_t(n))) ||
          !writeAll(fd, data) || !writeAll(fd, "\r\n");
    return !bad;
}

bool
ChunkedResponse::finish()
{
    if (bad)
        return false;
    bad = !writeAll(fd, "0\r\n\r\n");
    return !bad;
}

HttpResponse
readHttpResponse(int fd)
{
    std::string head, rest;
    if (!readHead(fd, head, rest))
        throw IoError("connection closed before a full response");
    std::size_t eol = head.find("\r\n");
    if (eol == std::string::npos)
        eol = head.size();
    const std::string statusLine = head.substr(0, eol);
    HttpResponse resp;
    if (std::sscanf(statusLine.c_str(), "HTTP/%*d.%*d %d",
                    &resp.status) != 1)
        throw IoError(errorf("malformed status line '%s'",
                             statusLine.c_str()));
    if (!parseHeaderLines(head, eol + 2, resp.headers))
        throw IoError("malformed response header");
    const auto te = resp.headers.find("transfer-encoding");
    if (te != resp.headers.end() &&
        lowered(te->second) == "chunked") {
        if (!readChunked(fd, std::move(rest), resp.body))
            throw IoError("malformed chunked response body");
        return resp;
    }
    resp.body = std::move(rest);
    const auto cl = resp.headers.find("content-length");
    if (cl != resp.headers.end()) {
        const std::size_t n =
            std::size_t(std::strtoull(cl->second.c_str(), nullptr, 10));
        if (!readBody(fd, resp.body, n))
            throw IoError("short response body");
    } else {
        // Connection: close framing — read until EOF.
        char tmp[4096];
        for (;;) {
            const ssize_t r = readSome(fd, tmp, sizeof tmp);
            if (r < 0)
                throw IoError("error reading response body");
            if (r == 0)
                break;
            resp.body.append(tmp, std::size_t(r));
        }
    }
    return resp;
}

HttpResponse
httpFetch(const std::string &host, std::uint16_t port,
          const std::string &method, const std::string &path,
          std::string_view body)
{
    const int fd = connectTcp(host, port);
    std::string head;
    head.append(method).append(" ").append(path);
    head.append(" HTTP/1.1\r\nHost: ").append(host);
    head.append("\r\nContent-Length: ")
        .append(std::to_string(body.size()));
    head.append("\r\nConnection: close\r\n\r\n");
    if (!writeAll(fd, head) || !writeAll(fd, body)) {
        ::close(fd);
        throw IoError("error sending request");
    }
    try {
        HttpResponse resp = readHttpResponse(fd);
        ::close(fd);
        return resp;
    } catch (...) {
        ::close(fd);
        throw;
    }
}

} // namespace service
} // namespace elfsim
