// Socket plumbing for `cacval serve` and its clients (docs/serve.md):
// RAII fds, full-buffer sends, a blocking frame receive with a
// deadline, a retrying connect, and the two endpoint kinds — named
// AF_UNIX sockets (`--socket PATH`) and TCP (`--tcp HOST:PORT`).
//
// All sends use MSG_NOSIGNAL; a dead peer surfaces as
// DistError(PeerDied), never SIGPIPE.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "dist/wire.h"

namespace cac::dist {

/// Owning file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& o) noexcept : fd_(o.fd_) { o.fd_ = -1; }
  Fd& operator=(Fd&& o) noexcept {
    if (this != &o) {
      reset();
      fd_ = o.fd_;
      o.fd_ = -1;
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  void reset();

 private:
  int fd_ = -1;
};

/// Capped-exponential-backoff retry schedule for transient transport
/// failures (refused connects, timed-out sends).  The deadline bounds
/// the whole retry loop including backoff sleeps; 0 means attempts
/// alone bound it.
struct RetryPolicy {
  int max_attempts = 5;
  int initial_backoff_ms = 10;
  int max_backoff_ms = 1000;
  int deadline_ms = 0;
};

/// Process-wide transport health counters (reported through the serve
/// `stats` reply).  Monotone; read with
/// transport_counters(), zeroed with transport_counters_reset().
struct TransportCounters {
  std::uint64_t send_retries = 0;     // transient send errors retried
  std::uint64_t connect_retries = 0;  // failed connect attempts retried
};
TransportCounters transport_counters();
void transport_counters_reset();

/// Write the whole buffer, blocking as needed.  Transient failures
/// (ETIMEDOUT/ENOBUFS/ENOMEM — in practice injected ones; a blocking
/// send rarely surfaces them) are retried with capped backoff and
/// counted in TransportCounters::send_retries.  Throws
/// DistError(PeerDied) when the peer is gone, DistError(Io) otherwise.
void send_all(int fd, const void* data, std::size_t n);

/// TCP endpoints.  `spec` is "host:port"; an empty host means all
/// interfaces for listen and loopback for connect.
Fd tcp_listen(const std::string& spec);
Fd tcp_connect(const std::string& spec);

/// Named AF_UNIX endpoints (`cacval serve --socket PATH` and its
/// clients).  unix_listen unlinks a stale socket file first; the bound
/// path is removed by the caller on shutdown, not here.
Fd unix_listen(const std::string& path);
Fd unix_accept(int listen_fd);
Fd unix_connect(const std::string& path);

/// Run `connect_fn` under the retry policy: DistError(Io) attempts
/// (refused/unreachable — the server may still be starting or between
/// restarts) are retried with capped exponential backoff, counted in
/// TransportCounters::connect_retries.  Exhausting the policy rethrows
/// the last error as DistError(Timeout) — the typed retryable failure
/// `cacval submit` maps to its "server unreachable" exit.
/// Protocol/Corrupt errors are never retried.
Fd connect_with_retry(const std::function<Fd()>& connect_fn,
                      const RetryPolicy& policy, const std::string& what);

/// Blocking receive of one complete frame with an optional deadline:
/// poll(2) for readability, drain nonblockingly, repeat.  Returns the
/// frame, or nullopt on orderly EOF / peer death with no complete
/// frame buffered.  `deadline_ms` bounds the whole wait (0 = forever);
/// expiry throws DistError(Timeout).  Malformed bytes throw
/// DistError(Corrupt) as usual.
std::optional<Frame> recv_frame(int fd, FrameReader& fr,
                                int deadline_ms = 0);

}  // namespace cac::dist
