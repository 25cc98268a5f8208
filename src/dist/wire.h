// Frame layer of `cacval serve` (docs/serve.md, "Protocol").
//
// Every message between a serve client and the daemon is one *frame*:
// a fixed 20-byte header (magic, protocol version, frame type, payload
// length, and an FNV-1a checksum covering the header prefix plus the
// payload, so damage to any frame byte is detected) followed by the
// payload, a UTF-8 JSON document.  The header is encoded with the
// support/binio.h codec the checkpoint format uses.
//
// Robustness contract (pinned by tests/dist/frame_test.cc): a peer fed
// truncated, bit-flipped, or length-lying bytes raises a structured
// DistError and never crashes, hangs, or acts on a partially received
// frame.  The length is validated against the cap as soon as the
// header is complete, and the checksum before a payload is delivered.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace cac::dist {

/// Structured failure in the frame layer or the socket transport.
class DistError : public std::runtime_error {
 public:
  enum class Kind : std::uint8_t {
    Io,        // socket syscall failure
    Corrupt,   // malformed frame: bad magic, checksum, truncation
    Protocol,  // well-formed frame that violates the protocol state
    PeerDied,  // the peer process vanished
    Timeout,   // a deadline expired waiting on a peer (retryable)
  };

  DistError(Kind kind, const std::string& msg)
      : std::runtime_error("dist: " + msg), kind_(kind) {}

  [[nodiscard]] Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

// Types 1-17 belonged to a retired worker protocol that shared this
// header; a frame carrying one is rejected as corrupt.
enum class FrameType : std::uint8_t {
  kServeRequest = 18,   // client -> server: one job request
  kServeResponse = 19,  // server -> client: the job's final response
  kServeEvent = 20,     // server -> client: streamed progress event
};

// Changes only when a serve frame's bytes do (the retired worker
// protocol took it to 7).
constexpr std::uint8_t kProtoVersion = 7;
constexpr std::size_t kFrameHeaderSize = 4 + 1 + 1 + 2 + 4 + 8;
/// Upper bound on one payload.  It exists to reject length lies before
/// anything is buffered for them, not to size-limit honest peers.
constexpr std::uint64_t kMaxFramePayload = 1ull << 30;

struct Frame {
  FrameType type = FrameType::kServeRequest;
  std::string payload;
};

/// Header + checksum + payload, ready to write to a socket.
std::string encode_frame(FrameType type, std::string_view payload);

/// Incremental frame parser over a byte stream.  feed() appends raw
/// bytes; next() yields the next complete, checksum-verified frame or
/// nullopt when more bytes are needed.  Throws DistError(Corrupt) on
/// bad magic / version / type / reserved bytes, an implausible length,
/// or a checksum mismatch — the stream is then poisoned and must be
/// discarded.
class FrameReader {
 public:
  void feed(const char* data, std::size_t n);
  std::optional<Frame> next();
  /// True when no partial frame is buffered (a clean stream end).
  [[nodiscard]] bool idle() const { return buf_.size() == pos_; }

 private:
  std::string buf_;
  std::size_t pos_ = 0;  // consumed prefix, compacted lazily
};

}  // namespace cac::dist
