// The serve frame contract (src/dist/wire.h, docs/serve.md "Protocol"):
// `cacval serve` and its clients exchange JSON documents in frames of
// type 18-20 whose bytes are fixed, and a peer fed truncated,
// bit-flipped, or length-lying bytes raises a structured DistError — it
// never crashes, hangs, or silently accepts a damaged frame.  The
// corruption corpora below sweep *every* byte position of real encoded
// frames, so a regression anywhere in the header validation or the
// checksum fails here.
#include "dist/wire.h"

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

namespace cac::dist {
namespace {

// Fixed payloads in the shape of the serve documents.
constexpr std::string_view kPing = R"({"command":"ping"})";
constexpr std::string_view kResponse =
    R"({"status":"ok","cached":false,"key":"00112233445566778899aabbccddeeff","elapsed_us":1612,"exit_code":0,"results":[]})";

std::string progress_event(int states) {
  return R"({"event":"progress","key":"00112233445566778899aabbccddeeff","states":)" +
         std::to_string(states) + "}";
}

std::string hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out += kDigits[b >> 4];
    out += kDigits[b & 15];
  }
  return out;
}

TEST(DistFrame, ServeFrameBytesPinned) {
  // Serve clients and daemons of other builds must keep understanding
  // each other: the full frame — header, checksum and payload — is
  // pinned byte for byte.
  EXPECT_EQ(hex(encode_frame(FrameType::kServeRequest, kPing)),
            "434143460712000012000000"  // magic, v7, type 18, 0, len 18
            "8e306ed75fe77838"          // checksum
            "7b22636f6d6d616e64223a2270696e67227d");
}

TEST(DistFrame, RoundTripThroughReader) {
  const std::string payload(kResponse);
  const std::string bytes = encode_frame(FrameType::kServeResponse, payload);
  ASSERT_EQ(bytes.size(), kFrameHeaderSize + payload.size());

  FrameReader fr;
  fr.feed(bytes.data(), bytes.size());
  const auto f = fr.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, FrameType::kServeResponse);
  EXPECT_EQ(f->payload, payload);
  EXPECT_FALSE(fr.next().has_value());
  EXPECT_TRUE(fr.idle());
}

TEST(DistFrame, ByteAtATimeDelivery) {
  // Torn reads: frames split at every possible byte boundary must
  // reassemble, in order, without loss.
  std::string stream =
      encode_frame(FrameType::kServeEvent, progress_event(1));
  stream += encode_frame(FrameType::kServeResponse, kResponse);
  stream += encode_frame(FrameType::kServeEvent, progress_event(2));
  FrameReader fr;
  std::vector<Frame> got;
  for (const char c : stream) {
    fr.feed(&c, 1);
    while (auto f = fr.next()) got.push_back(*f);
  }
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].type, FrameType::kServeEvent);
  EXPECT_EQ(got[1].type, FrameType::kServeResponse);
  EXPECT_EQ(got[2].type, FrameType::kServeEvent);
  EXPECT_TRUE(fr.idle());
}

TEST(DistFrame, TruncationNeverYieldsAFrame) {
  // Every strict prefix of a valid frame is "wait for more bytes" —
  // never a frame, never a crash.
  const std::string bytes = encode_frame(FrameType::kServeResponse, kResponse);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    FrameReader fr;
    fr.feed(bytes.data(), cut);
    EXPECT_FALSE(fr.next().has_value()) << "prefix length " << cut;
    if (cut > 0) {
      EXPECT_FALSE(fr.idle());  // a partial frame is pending
    }
  }
}

TEST(DistFrame, EveryHeaderAndPayloadBitFlipIsRejected) {
  // Flip one bit in every byte of the frame: header damage must raise
  // DistError(Corrupt) immediately; payload damage must be caught by
  // the checksum.  No flipped frame may ever be delivered as valid.
  const std::string good = encode_frame(FrameType::kServeRequest, kPing);
  for (std::size_t i = 0; i < good.size(); ++i) {
    for (const unsigned bit : {0u, 3u, 7u}) {
      std::string bad = good;
      bad[i] = static_cast<char>(bad[i] ^ (1u << bit));
      FrameReader fr;
      try {
        fr.feed(bad.data(), bad.size());
        const auto f = fr.next();
        // A flip inside the length field can make the frame look
        // incomplete — that is "wait for more", which is fine; what is
        // not fine is delivering a frame whose bytes were damaged.
        EXPECT_FALSE(f.has_value())
            << "corrupt frame accepted (byte " << i << " bit " << bit << ")";
      } catch (const DistError& e) {
        EXPECT_EQ(e.kind(), DistError::Kind::Corrupt);
      }
    }
  }
}

TEST(DistFrame, LengthLiesAreRejected) {
  // A header whose length field exceeds the cap must be rejected
  // before any allocation happens.
  std::string bytes = encode_frame(FrameType::kServeRequest, kPing);
  // Length field lives after magic(4) + version(1) + type(1) +
  // reserved(2), little-endian u32.
  const std::size_t len_off = 8;
  bytes[len_off + 3] = '\x7f';  // ~2 GiB claim
  FrameReader fr;
  EXPECT_THROW(
      {
        fr.feed(bytes.data(), bytes.size());
        fr.next();
      },
      DistError);
}

TEST(DistFrame, BadMagicVersionTypeReservedRejected) {
  const std::string good = encode_frame(FrameType::kServeResponse, kResponse);
  const auto expect_corrupt = [&](std::size_t off, char value) {
    std::string bad = good;
    bad[off] = value;
    FrameReader fr;
    try {
      fr.feed(bad.data(), bad.size());
      (void)fr.next();
      FAIL() << "accepted frame with bad byte at offset " << off;
    } catch (const DistError& e) {
      EXPECT_EQ(e.kind(), DistError::Kind::Corrupt);
    }
  };
  expect_corrupt(0, 'X');     // magic
  expect_corrupt(3, 'X');     // magic
  expect_corrupt(4, static_cast<char>(kProtoVersion + 1));  // version
  expect_corrupt(4, static_cast<char>(kProtoVersion - 1));  // older peer
  expect_corrupt(5, '\x00');  // frame type 0 is invalid
  expect_corrupt(5, '\x01');  // the lowest retired worker type
  expect_corrupt(5, '\x11');  // the highest retired worker type (17)
  expect_corrupt(5, '\x15');  // one past kServeEvent (21)
  expect_corrupt(5, '\x7f');  // frame type out of range
  expect_corrupt(6, '\x01');  // reserved must be zero
  expect_corrupt(7, '\x01');  // reserved must be zero
}

TEST(DistFrame, OversizePayloadRefusedAtEncode) {
  EXPECT_THROW(encode_frame(FrameType::kServeResponse,
                            std::string_view{nullptr, kMaxFramePayload + 1}),
               DistError);
}

}  // namespace
}  // namespace cac::dist
