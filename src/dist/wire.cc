#include "dist/wire.h"

#include <cstring>

#include "support/binio.h"
#include "support/hash.h"

namespace cac::dist {

using support::BinReader;
using support::BinWriter;

namespace {

constexpr char kMagic[4] = {'C', 'A', 'C', 'F'};

[[noreturn]] void corrupt(const std::string& what) {
  throw DistError(DistError::Kind::Corrupt, what);
}

}  // namespace

std::string encode_frame(FrameType type, std::string_view payload) {
  if (payload.size() > kMaxFramePayload) {
    throw DistError(DistError::Kind::Protocol, "frame payload over cap");
  }
  BinWriter w;
  w.bytes(kMagic, sizeof(kMagic));
  w.u8(kProtoVersion);
  w.u8(static_cast<std::uint8_t>(type));
  w.u8(0);  // reserved u16
  w.u8(0);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  // The checksum covers the header prefix (magic through length) as
  // well as the payload, so a flipped frame-type or length byte cannot
  // masquerade as a valid frame of another shape.
  const std::string& prefix = w.buffer();
  w.u64(fnv1a(payload.data(), payload.size(),
              fnv1a(prefix.data(), prefix.size())));
  w.bytes(payload.data(), payload.size());
  return w.take();
}

void FrameReader::feed(const char* data, std::size_t n) {
  // Compact the consumed prefix before it dominates the buffer.
  if (pos_ > 0 && pos_ >= buf_.size() / 2) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  buf_.append(data, n);
}

std::optional<Frame> FrameReader::next() {
  if (buf_.size() - pos_ < kFrameHeaderSize) return std::nullopt;
  const char* h = buf_.data() + pos_;
  if (std::memcmp(h, kMagic, sizeof(kMagic)) != 0) {
    corrupt("bad frame magic");
  }
  BinReader r(std::string_view(h, kFrameHeaderSize).substr(sizeof(kMagic)));
  const std::uint8_t version = r.u8();
  if (version != kProtoVersion) {
    corrupt("frame protocol version " + std::to_string(version) +
            ", this build speaks " + std::to_string(kProtoVersion));
  }
  const std::uint8_t type = r.u8();
  if (type < static_cast<std::uint8_t>(FrameType::kServeRequest) ||
      type > static_cast<std::uint8_t>(FrameType::kServeEvent)) {
    corrupt("unknown frame type " + std::to_string(type));
  }
  if (r.u8() != 0 || r.u8() != 0) corrupt("nonzero reserved frame field");
  const std::uint64_t len = r.u32();
  if (len > kMaxFramePayload) corrupt("frame payload length over cap");
  if (buf_.size() - pos_ - kFrameHeaderSize < len) return std::nullopt;
  const std::string_view payload(buf_.data() + pos_ + kFrameHeaderSize,
                                 len);
  if (fnv1a(payload.data(), payload.size(), fnv1a(h, 12)) != r.u64()) {
    corrupt("frame checksum mismatch");
  }
  Frame f;
  f.type = static_cast<FrameType>(type);
  f.payload.assign(payload);
  pos_ += kFrameHeaderSize + len;
  return f;
}

}  // namespace cac::dist
