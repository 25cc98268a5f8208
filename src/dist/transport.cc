#include "dist/transport.h"

#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

#include "support/fault.h"

namespace cac::dist {

namespace {

[[noreturn]] void io_fail(const std::string& what) {
  throw DistError(DistError::Kind::Io,
                  what + ": " + std::strerror(errno));
}

bool peer_gone(int err) {
  return err == EPIPE || err == ECONNRESET || err == ENOTCONN;
}

/// Errors worth retrying in place: the socket is still usable, the
/// condition is load/latency, not a dead peer.  EAGAIN can reach the
/// blocking send path via SO_SNDTIMEO or injection; it is load, not
/// death.
bool send_transient(int err) {
  return err == EAGAIN || err == EWOULDBLOCK || err == ETIMEDOUT ||
         err == ENOBUFS || err == ENOMEM;
}

std::atomic<std::uint64_t> g_send_retries{0};
std::atomic<std::uint64_t> g_connect_retries{0};

std::chrono::steady_clock::time_point now() {
  return std::chrono::steady_clock::now();
}

int ms_since(std::chrono::steady_clock::time_point start) {
  return static_cast<int>(std::chrono::duration_cast<std::chrono::milliseconds>(
                              now() - start)
                              .count());
}

/// Split "host:port" at the last colon (empty host allowed).
std::pair<std::string, std::string> split_spec(const std::string& spec) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon + 1 == spec.size()) {
    throw DistError(DistError::Kind::Protocol,
                    "endpoint must be host:port, got '" + spec + "'");
  }
  return {spec.substr(0, colon), spec.substr(colon + 1)};
}

/// Drain everything currently readable (nonblocking) into the frame
/// reader.  Returns false on orderly EOF or a vanished peer.
bool pump_reads(int fd, FrameReader& fr) {
  char buf[1 << 16];
  for (;;) {
    if (int err = support::fault_check("recv")) {
      if (peer_gone(err)) return false;
      if (err == EAGAIN || err == EWOULDBLOCK) return true;
      errno = err;
      io_fail("recv");
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), MSG_DONTWAIT);
    if (n > 0) {
      fr.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return false;  // orderly EOF
    if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
    if (errno == EINTR) continue;
    if (peer_gone(errno)) return false;
    io_fail("recv");
  }
}

}  // namespace

void Fd::reset() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

TransportCounters transport_counters() {
  TransportCounters c;
  c.send_retries = g_send_retries.load(std::memory_order_relaxed);
  c.connect_retries = g_connect_retries.load(std::memory_order_relaxed);
  return c;
}

void transport_counters_reset() {
  g_send_retries.store(0, std::memory_order_relaxed);
  g_connect_retries.store(0, std::memory_order_relaxed);
}

void send_all(int fd, const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  int backoff_ms = 1;
  int retries_left = 5;
  while (n > 0) {
    int err = support::fault_check("send");
    ssize_t w = -1;
    if (err == 0) {
      w = ::send(fd, p, n, MSG_NOSIGNAL);
      if (w < 0) err = errno;
    }
    if (w < 0) {
      if (err == EINTR) continue;
      if (send_transient(err) && retries_left > 0) {
        --retries_left;
        g_send_retries.fetch_add(1, std::memory_order_relaxed);
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
        backoff_ms = std::min(backoff_ms * 2, 100);
        continue;
      }
      if (peer_gone(err)) {
        throw DistError(DistError::Kind::PeerDied, "peer closed the socket");
      }
      errno = err;
      io_fail("send");
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
}

Fd tcp_listen(const std::string& spec) {
  const auto [host, port] = split_spec(spec);
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* res = nullptr;
  const int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(),
                               port.c_str(), &hints, &res);
  if (rc != 0) {
    throw DistError(DistError::Kind::Io,
                    "resolve " + spec + ": " + gai_strerror(rc));
  }
  Fd fd;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    Fd cand(::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
    if (!cand.valid()) continue;
    const int one = 1;
    ::setsockopt(cand.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(cand.get(), ai->ai_addr, ai->ai_addrlen) == 0 &&
        ::listen(cand.get(), 64) == 0) {
      fd = std::move(cand);
      break;
    }
  }
  ::freeaddrinfo(res);
  if (!fd.valid()) io_fail("listen on " + spec);
  return fd;
}

Fd tcp_connect(const std::string& spec) {
  if (int err = support::fault_check("connect", spec)) {
    errno = err;
    io_fail("connect to " + spec);
  }
  const auto [host, port] = split_spec(spec);
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* res = nullptr;
  const int rc =
      ::getaddrinfo(host.empty() ? "127.0.0.1" : host.c_str(),
                    port.c_str(), &hints, &res);
  if (rc != 0) {
    throw DistError(DistError::Kind::Io,
                    "resolve " + spec + ": " + gai_strerror(rc));
  }
  Fd fd;
  for (addrinfo* ai = res; ai != nullptr; ai = ai->ai_next) {
    Fd cand(::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
    if (!cand.valid()) continue;
    if (::connect(cand.get(), ai->ai_addr, ai->ai_addrlen) == 0) {
      const int one = 1;
      ::setsockopt(cand.get(), IPPROTO_TCP, TCP_NODELAY, &one,
                   sizeof(one));
      fd = std::move(cand);
      break;
    }
  }
  ::freeaddrinfo(res);
  if (!fd.valid()) io_fail("connect to " + spec);
  return fd;
}

namespace {

sockaddr_un unix_addr(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    throw DistError(DistError::Kind::Protocol,
                    "unix socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  return addr;
}

}  // namespace

Fd unix_listen(const std::string& path) {
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) io_fail("socket");
  const sockaddr_un addr = unix_addr(path);
  ::unlink(path.c_str());  // a stale socket file would fail the bind
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    io_fail("bind " + path);
  }
  if (::listen(fd.get(), 64) != 0) io_fail("listen on " + path);
  return fd;
}

Fd unix_accept(int listen_fd) {
  for (;;) {
    if (int err = support::fault_check("accept")) {
      errno = err;
      io_fail("accept");
    }
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) return Fd(fd);
    if (errno == EINTR) continue;
    io_fail("accept");
  }
}

Fd unix_connect(const std::string& path) {
  if (int err = support::fault_check("connect", path)) {
    errno = err;
    io_fail("connect to " + path);
  }
  Fd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) io_fail("socket");
  const sockaddr_un addr = unix_addr(path);
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    io_fail("connect to " + path);
  }
  return fd;
}

Fd connect_with_retry(const std::function<Fd()>& connect_fn,
                      const RetryPolicy& policy, const std::string& what) {
  const auto start = now();
  int backoff_ms = policy.initial_backoff_ms > 0 ? policy.initial_backoff_ms
                                                 : 1;
  std::string last_error;
  for (int attempt = 1;; ++attempt) {
    try {
      return connect_fn();
    } catch (const DistError& e) {
      if (e.kind() != DistError::Kind::Io) throw;
      last_error = e.what();
    }
    const bool out_of_attempts =
        policy.max_attempts > 0 && attempt >= policy.max_attempts;
    const bool out_of_time =
        policy.deadline_ms > 0 && ms_since(start) >= policy.deadline_ms;
    if (out_of_attempts || out_of_time) {
      throw DistError(DistError::Kind::Timeout,
                      what + " unreachable after " +
                          std::to_string(attempt) + " attempt(s): " +
                          last_error);
    }
    g_connect_retries.fetch_add(1, std::memory_order_relaxed);
    int sleep_ms = backoff_ms;
    if (policy.deadline_ms > 0) {
      const int left = policy.deadline_ms - ms_since(start);
      sleep_ms = std::min(sleep_ms, left > 0 ? left : 0);
    }
    if (sleep_ms > 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    backoff_ms = std::min(backoff_ms * 2, policy.max_backoff_ms > 0
                                              ? policy.max_backoff_ms
                                              : backoff_ms);
  }
}

std::optional<Frame> recv_frame(int fd, FrameReader& fr, int deadline_ms) {
  const auto start = now();
  for (;;) {
    if (std::optional<Frame> f = fr.next()) return f;
    int wait_ms = -1;  // poll forever
    if (deadline_ms > 0) {
      wait_ms = deadline_ms - ms_since(start);
      if (wait_ms <= 0) {
        throw DistError(DistError::Kind::Timeout,
                        "no frame within " + std::to_string(deadline_ms) +
                            " ms");
      }
    }
    pollfd pfd{fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, wait_ms);
    if (rc < 0) {
      if (errno == EINTR) continue;
      io_fail("poll");
    }
    if (rc == 0) continue;  // re-check the deadline at the loop head
    if (!pump_reads(fd, fr)) {
      // EOF: a final complete frame may still be buffered.
      if (std::optional<Frame> f = fr.next()) return f;
      return std::nullopt;
    }
  }
}

}  // namespace cac::dist
