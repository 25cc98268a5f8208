// Robustness contract of the distributed wire format (src/dist/wire.h):
// every message type round-trips byte-exactly, and a peer fed
// truncated, bit-flipped, or length-lying bytes raises a structured
// DistError / support::BinError — it never crashes, hangs, or silently
// accepts a damaged frame.  The corruption corpora below sweep *every*
// byte position of real encoded frames, so a regression anywhere in
// the header validation, checksum, or per-message decoders fails here.
#include "dist/wire.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>

#include "support/binio.h"

namespace cac::dist {
namespace {

using support::BinError;
using support::BinReader;
using support::BinWriter;

sem::Choice exec(std::uint32_t b, std::uint32_t w) {
  return sem::Choice{sem::Choice::Kind::ExecWarp, b, w};
}

sem::Choice lift(std::uint32_t b) {
  return sem::Choice{sem::Choice::Kind::LiftBar, b, 0};
}

SetupMsg sample_setup() {
  SetupMsg m;
  m.worker_index = 3;
  m.n_workers = 4;
  m.program_fp = 0x1122334455667788ull;
  m.config_fp = 0x99aabbccddeeff00ull;
  m.options.max_depth = 777;
  m.options.max_states = 4242;
  m.options.partial_order_reduction = true;
  m.checkpoint_base = "/tmp/ck";
  m.resume = 1;
  m.resume_base = "/tmp/old-ck";
  m.generation = 9;
  m.die_worker = 1;
  m.die_after_states = 50;
  m.store.spill_dir = "/tmp/spill";
  m.store.resident_budget_bytes = 1 << 20;
  return m;
}

StateMsg sample_state() {
  StateMsg m;
  m.target = 2;
  m.parent = Gid::make(1, 17);
  m.edge_index = 5;
  m.mirror_id = 33;
  m.depth = 12;
  m.state = std::string("\x01\x02\x03 not a real record", 22);
  return m;
}

ResolveMsg sample_resolve() {
  ResolveMsg m;
  m.target = 1;
  m.parent = Gid::make(1, 17);
  m.edge_index = 5;
  m.mirror_id = 33;
  m.overflow = 0;
  m.child = Gid::make(2, 99);
  return m;
}

ProbeAckMsg sample_probe_ack() {
  ProbeAckMsg m;
  m.nonce = 41;
  m.worker = 2;
  m.sent = 100;
  m.processed = 98;
  m.idle = 1;
  m.paused = 0;
  m.owned = 512;
  m.rss_bytes = 1 << 20;
  return m;
}

GraphPartMsg sample_graph_part() {
  GraphPartMsg m;
  m.worker = 1;
  m.has_root = 1;
  m.root_local = 0;
  m.store = "store-bytes";
  using sched::EdgeKind;
  NodeRecord n;
  n.id = {7};
  n.kind = sched::NodeKind::Expanded;
  n.edges.push_back({exec(0, 1), EdgeKind::Child, Gid::make(0, 3), ""});
  n.edges.push_back({lift(0), EdgeKind::Fault, Gid{}, "out-of-bounds store"});
  n.edges.push_back({exec(1, 0), EdgeKind::Overflow, Gid{}, ""});
  m.nodes.push_back(n);
  NodeRecord stuck;
  stuck.id = {8};
  stuck.kind = sched::NodeKind::Stuck;
  stuck.stuck_reason = "barrier divergence";
  m.nodes.push_back(stuck);
  m.owned = 2;
  m.frontier_sent = 4;
  m.resolves_sent = 3;
  m.bytes_sent = 1000;
  m.bytes_received = 900;
  return m;
}

WorkerCheckpointMsg sample_worker_checkpoint() {
  WorkerCheckpointMsg m;
  m.program_fp = 0xdead;
  m.config_fp = 0xbeef;
  m.options.max_states = 10;
  m.n_workers = 2;
  m.worker_index = 1;
  m.generation = 3;
  m.has_root = 0;
  m.store = "partition";
  m.nodes = sample_graph_part().nodes;
  m.frontier.emplace_back(7, 2);
  m.frontier.emplace_back(8, 5);
  return m;
}

ManifestMsg sample_manifest() {
  ManifestMsg m;
  m.program_fp = 0xdead;
  m.config_fp = 0xbeef;
  m.options.max_depth = 64;
  m.n_workers = 4;
  m.generation = 2;
  m.root = Gid::make(3, 0);
  return m;
}

template <typename Msg>
std::string encoded(const Msg& m) {
  BinWriter w;
  m.encode(w);
  return w.take();
}

/// Round-trip helper: encode, decode, re-encode, and require the
/// re-encoding to be byte-identical (a stronger check than field-wise
/// equality and immune to missing operator==).
template <typename Msg>
void expect_roundtrip(const Msg& m) {
  const std::string bytes = encoded(m);
  BinReader r(bytes);
  const Msg back = Msg::decode(r);
  EXPECT_TRUE(r.done()) << "decode left trailing bytes";
  EXPECT_EQ(encoded(back), bytes);
}

TEST(DistWire, EveryMessageTypeRoundTrips) {
  expect_roundtrip(sample_setup());
  expect_roundtrip(sample_state());
  expect_roundtrip(sample_resolve());
  expect_roundtrip(RootAckMsg{Gid::make(0, 0)});
  expect_roundtrip(RootAckMsg{Gid{}});  // overflow root
  expect_roundtrip(ProbeMsg{77});
  expect_roundtrip(sample_probe_ack());
  expect_roundtrip(WriteCheckpointMsg{6});
  expect_roundtrip(CheckpointAckMsg{2, 1, ""});
  expect_roundtrip(CheckpointAckMsg{0, 0, "disk full"});
  expect_roundtrip(sample_graph_part());
  expect_roundtrip(sample_worker_checkpoint());
  expect_roundtrip(sample_manifest());
}

TEST(DistWire, GidPacksWorkerAndLocal) {
  const Gid g = Gid::make(0xabcd, 0x1234);
  EXPECT_EQ(g.worker(), 0xabcdu);
  EXPECT_EQ(g.local(), 0x1234u);
  EXPECT_TRUE(g.valid());
  EXPECT_FALSE(Gid{}.valid());
}

TEST(DistWire, OwnerMatchesInProcessShardFold) {
  // owner_of is the 64-way shard map folded onto n workers: owners
  // must be stable, in range, and divide the shard space evenly.
  for (const std::uint32_t n : {1u, 2u, 3u, 4u, 8u}) {
    for (std::uint64_t h = 0; h < 64; ++h) {
      const std::uint32_t o = owner_of(h << 58, n);
      EXPECT_LT(o, n);
      EXPECT_EQ(o, owner_of(h << 58, n));
    }
  }
  EXPECT_EQ(owner_of(0x5ull << 58, 1), 0u);
}

// --- frame layer -----------------------------------------------------

TEST(DistFrame, RoundTripThroughReader) {
  const std::string payload = encoded(sample_probe_ack());
  const std::string bytes = encode_frame(FrameType::kProbeAck, payload);
  ASSERT_EQ(bytes.size(), kFrameHeaderSize + payload.size());

  FrameReader fr;
  fr.feed(bytes.data(), bytes.size());
  const auto f = fr.next();
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->type, FrameType::kProbeAck);
  EXPECT_EQ(f->payload, payload);
  EXPECT_FALSE(fr.next().has_value());
  EXPECT_TRUE(fr.idle());
}

TEST(DistFrame, ByteAtATimeDelivery) {
  // Torn reads: frames split at every possible byte boundary must
  // reassemble, in order, without loss.
  std::string stream = encode_frame(FrameType::kProbe, encoded(ProbeMsg{1}));
  stream += encode_frame(FrameType::kStop, "");
  stream += encode_frame(FrameType::kProbe, encoded(ProbeMsg{2}));
  FrameReader fr;
  std::vector<Frame> got;
  for (const char c : stream) {
    fr.feed(&c, 1);
    while (auto f = fr.next()) got.push_back(*f);
  }
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0].type, FrameType::kProbe);
  EXPECT_EQ(got[1].type, FrameType::kStop);
  EXPECT_EQ(got[2].type, FrameType::kProbe);
  EXPECT_TRUE(fr.idle());
}

TEST(DistFrame, TruncationNeverYieldsAFrame) {
  // Every strict prefix of a valid frame is "wait for more bytes" —
  // never a frame, never a crash.
  const std::string bytes =
      encode_frame(FrameType::kProbeAck, encoded(sample_probe_ack()));
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
  const std::string good =
      encode_frame(FrameType::kProbe, encoded(ProbeMsg{0x1234}));
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
  std::string bytes = encode_frame(FrameType::kStop, "");
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
  const std::string good = encode_frame(FrameType::kStop, "");
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
  expect_corrupt(5, '\x7f');  // frame type out of range
  expect_corrupt(6, '\x01');  // reserved must be zero
  expect_corrupt(7, '\x01');  // reserved must be zero
}

TEST(DistFrame, OversizePayloadRefusedAtEncode) {
  EXPECT_THROW(encode_frame(FrameType::kState,
                            std::string_view{nullptr, kMaxFramePayload + 1}),
               DistError);
}

// --- message decoder corpora ----------------------------------------

/// For every strict prefix of an encoded message, decode must throw
/// BinError (never crash, never succeed: every decoder consumes the
/// full buffer, so a missing suffix is always detectable).
template <typename Msg>
void expect_truncation_rejected(const Msg& m, const char* name) {
  SCOPED_TRACE(name);
  const std::string bytes = encoded(m);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    BinReader r(std::string_view(bytes.data(), cut));
    EXPECT_THROW((void)Msg::decode(r), BinError) << "prefix " << cut;
  }
}

/// Bit-flipped payloads must either decode (a flip in a value byte is
/// semantically fine — the frame checksum guards transit; this corpus
/// guards the *decoder* against crashes on adversarial bytes) or throw
/// a structured error.  gtest's death-test-free way of saying "never
/// segfaults or hangs".
template <typename Msg>
void expect_bitflips_are_structured(const Msg& m, const char* name) {
  SCOPED_TRACE(name);
  const std::string bytes = encoded(m);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    std::string bad = bytes;
    bad[i] = static_cast<char>(bad[i] ^ 0x40);
    BinReader r(bad);
    try {
      (void)Msg::decode(r);
    } catch (const BinError&) {
    } catch (const DistError&) {
    }
  }
}

TEST(DistWire, TruncatedMessagesRaiseStructuredErrors) {
  expect_truncation_rejected(sample_setup(), "setup");
  expect_truncation_rejected(sample_state(), "state");
  expect_truncation_rejected(sample_resolve(), "resolve");
  expect_truncation_rejected(ProbeMsg{7}, "probe");
  expect_truncation_rejected(sample_probe_ack(), "probe_ack");
  expect_truncation_rejected(WriteCheckpointMsg{1}, "write_checkpoint");
  expect_truncation_rejected(CheckpointAckMsg{0, 0, "err"}, "checkpoint_ack");
  expect_truncation_rejected(sample_graph_part(), "graph_part");
  expect_truncation_rejected(sample_worker_checkpoint(), "worker_checkpoint");
  expect_truncation_rejected(sample_manifest(), "manifest");
}

TEST(DistWire, BitFlippedMessagesNeverCrash) {
  expect_bitflips_are_structured(sample_setup(), "setup");
  expect_bitflips_are_structured(sample_state(), "state");
  expect_bitflips_are_structured(sample_resolve(), "resolve");
  expect_bitflips_are_structured(sample_probe_ack(), "probe_ack");
  expect_bitflips_are_structured(sample_graph_part(), "graph_part");
  expect_bitflips_are_structured(sample_worker_checkpoint(),
                                 "worker_checkpoint");
  expect_bitflips_are_structured(sample_manifest(), "manifest");
}

TEST(DistWire, CountLiesCannotForceAllocations) {
  // A GraphPartMsg whose node count claims 2^60 entries must be
  // rejected by the count-vs-remaining-bytes guard, not by an OOM.
  BinWriter w;
  sample_graph_part().encode(w);
  std::string bytes = w.take();
  // The node-count u64 follows worker(4) + has_root(1) + root_local(4)
  // + store(8 + 11).  Overwrite it with an enormous value.
  const std::size_t count_off = 4 + 1 + 4 + 8 + 11;
  for (int i = 0; i < 8; ++i) bytes[count_off + i] = '\x77';
  BinReader r(bytes);
  EXPECT_THROW((void)GraphPartMsg::decode(r), BinError);
}

// --- on-disk frame files ---------------------------------------------

TEST(DistFrameFile, RoundTripAndWrongTypeRejected) {
  const std::string path = testing::TempDir() + "dist_frame_file_test";
  const std::string payload = encoded(sample_manifest());
  write_frame_file(path, FrameType::kManifest, payload);

  const Frame f = load_frame_file(path, FrameType::kManifest);
  EXPECT_EQ(f.payload, payload);

  EXPECT_THROW((void)load_frame_file(path, FrameType::kWorkerCheckpoint),
               sched::CheckpointError);
  EXPECT_THROW((void)load_frame_file(path + ".missing", FrameType::kManifest),
               sched::CheckpointError);
  std::remove(path.c_str());
}

TEST(DistFrameFile, DamagedFileRejected) {
  const std::string path = testing::TempDir() + "dist_frame_damaged";
  write_frame_file(path, FrameType::kManifest, encoded(sample_manifest()));
  // Flip one payload byte on disk: the load must detect it.
  {
    std::FILE* f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, static_cast<long>(kFrameHeaderSize) + 2, SEEK_SET);
    const int c = std::fgetc(f);
    std::fseek(f, static_cast<long>(kFrameHeaderSize) + 2, SEEK_SET);
    std::fputc(c ^ 0x01, f);
    std::fclose(f);
  }
  EXPECT_THROW((void)load_frame_file(path, FrameType::kManifest),
               sched::CheckpointError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cac::dist
