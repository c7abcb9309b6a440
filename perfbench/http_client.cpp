#include "http_client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>

namespace umon::perfbench {

namespace {

/// A response still incomplete after this long counts as failed.
constexpr timeval kReceiveTimeout{2, 0};

int connect_local(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const int one = 1;
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &kReceiveTimeout,
                     sizeof(kReceiveTimeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, const std::string& data) {
  std::size_t off = 0;
  while (off < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + off, data.size() - off, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    off += static_cast<std::size_t>(n);
  }
  return true;
}

std::string request_bytes(const std::string& target, bool keep_alive) {
  return "GET " + target + " HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: " +
         (keep_alive ? "keep-alive" : "close") + "\r\n\r\n";
}

/// Consumes one complete response from the front of `buf`. Returns false
/// while the response is incomplete.
bool take_response(std::string& buf, HttpResult& out) {
  const std::size_t head_end = buf.find("\r\n\r\n");
  if (head_end == std::string::npos) return false;
  std::size_t body_len = 0;
  const std::size_t cl = buf.find("Content-Length:");
  if (cl != std::string::npos && cl < head_end) {
    body_len = std::strtoul(buf.c_str() + cl + 15, nullptr, 10);
  }
  if (buf.size() < head_end + 4 + body_len) return false;
  out.status = buf.compare(0, 9, "HTTP/1.1 ") == 0
                   ? std::atoi(buf.c_str() + 9)
                   : 0;
  out.body = buf.substr(head_end + 4, body_len);
  buf.erase(0, head_end + 4 + body_len);
  return true;
}

/// Reads into `buf` once; false on EOF or error.
bool read_some(int fd, std::string& buf) {
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buf.append(chunk, static_cast<std::size_t>(n));
    return true;
  }
}

}  // namespace

HttpResult http_get(std::uint16_t port, const std::string& target) {
  HttpResult out;
  const int fd = connect_local(port);
  if (fd < 0) return out;
  std::string buf;
  if (send_all(fd, request_bytes(target, /*keep_alive=*/false))) {
    while (!take_response(buf, out)) {
      if (!read_some(fd, buf)) break;
    }
  }
  ::close(fd);
  return out;
}

std::int64_t QueryClient::run(const std::atomic<bool>& stop,
                              std::uint64_t max_requests,
                              const std::atomic<std::uint64_t>* allowance) {
  int fd = -1;
  std::string buf;
  std::int64_t busy_ns = 0;
  while (!stop.load() && (max_requests == 0 || sent_ < max_requests)) {
    if (allowance != nullptr && sent_ >= allowance->load()) {
      allowance->wait(sent_);
      continue;
    }
    if (fd < 0) fd = connect_local(port_);
    const Request req = next_();
    const std::uint64_t id = sent_++;
    const std::int64_t sent_at = now_ns();
    HttpResult r;
    bool ok = fd >= 0 && send_all(fd, request_bytes(req.target, true));
    while (ok && !take_response(buf, r)) ok = read_some(fd, buf);
    const std::int64_t done = now_ns();
    busy_ns += done - sent_at;
    if (!ok) {
      samples_.push_back(Sample{req.kind, 0, 0});
      if (fd >= 0) ::close(fd);
      fd = -1;
      buf.clear();
      continue;
    }
    samples_.push_back(Sample{req.kind, r.status,
                              static_cast<double>(done - sent_at) / 1e3});
    log_.record(req.kind, id, sent_at, done - sent_at);
  }
  if (fd >= 0) ::close(fd);
  return busy_ns;
}

}  // namespace umon::perfbench
