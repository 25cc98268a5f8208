#include "dist/wire.h"

#include <cstring>

#include "sched/checkpoint_codec.h"
#include "support/binio.h"
#include "support/hash.h"
#include "support/io.h"

namespace cac::dist {

using support::BinError;
using support::BinReader;
using support::BinWriter;

std::string to_string(DistError::Kind k) {
  switch (k) {
    case DistError::Kind::Io: return "io";
    case DistError::Kind::Corrupt: return "corrupt";
    case DistError::Kind::Protocol: return "protocol";
    case DistError::Kind::PeerDied: return "peer-died";
    case DistError::Kind::Timeout: return "timeout";
  }
  return "?";
}

// --- frame layer -----------------------------------------------------

namespace {

constexpr char kMagic[4] = {'C', 'A', 'C', 'F'};

[[noreturn]] void corrupt(const std::string& what) {
  throw DistError(DistError::Kind::Corrupt, what);
}

void encode_gid(BinWriter& w, Gid g) { w.u64(g.v); }
Gid decode_gid(BinReader& r) { return Gid{r.u64()}; }

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
  if (type < static_cast<std::uint8_t>(FrameType::kSetup) ||
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

// --- message payloads ------------------------------------------------

void SetupMsg::encode(BinWriter& w) const {
  w.u32(worker_index);
  w.u32(n_workers);
  w.u64(program_fp);
  w.u64(config_fp);
  sched::codec::encode_options(w, options);
  w.str(checkpoint_base);
  w.u8(resume);
  w.str(resume_base);
  w.u64(generation);
  w.u32(die_worker);
  w.u64(die_after_states);
  w.u64(die_after_generation);
  w.str(store.spill_dir);
  w.u64(store.resident_budget_bytes);
  w.u64(store.bloom_bits_per_shard);
  w.u32(store.delta_max_depth);
}

SetupMsg SetupMsg::decode(BinReader& r) {
  SetupMsg m;
  m.worker_index = r.u32();
  m.n_workers = r.u32();
  if (m.n_workers == 0 || m.worker_index >= m.n_workers) {
    throw BinError("bad worker identity in setup");
  }
  m.program_fp = r.u64();
  m.config_fp = r.u64();
  m.options = sched::codec::decode_options(r);
  m.checkpoint_base = r.str();
  m.resume = r.u8();
  if (m.resume > 1) throw BinError("bad resume flag in setup");
  m.resume_base = r.str();
  m.generation = r.u64();
  m.die_worker = r.u32();
  m.die_after_states = r.u64();
  m.die_after_generation = r.u64();
  m.store.spill_dir = r.str();
  m.store.resident_budget_bytes = r.u64();
  m.store.bloom_bits_per_shard = r.u64();
  m.store.delta_max_depth = r.u32();
  return m;
}

void RollbackMsg::encode(BinWriter& w) const {
  w.u64(generation);
  w.str(resume_base);
  w.u32(epoch);
}

RollbackMsg RollbackMsg::decode(BinReader& r) {
  RollbackMsg m;
  m.generation = r.u64();
  m.resume_base = r.str();
  m.epoch = r.u32();
  return m;
}

void RollbackAckMsg::encode(BinWriter& w) const {
  w.u32(worker);
  w.u32(epoch);
  w.u8(ok);
  w.str(error);
}

RollbackAckMsg RollbackAckMsg::decode(BinReader& r) {
  RollbackAckMsg m;
  m.worker = r.u32();
  m.epoch = r.u32();
  m.ok = r.u8();
  if (m.ok > 1) throw BinError("bad ok flag in rollback ack");
  m.error = r.str();
  return m;
}

void StateMsg::encode(BinWriter& w) const {
  w.u32(target);
  encode_gid(w, parent);
  w.u32(edge_index);
  w.u32(mirror_id);
  w.u64(depth);
  w.str(state);
}

StateMsg StateMsg::decode(BinReader& r) {
  StateMsg m;
  m.target = r.u32();
  m.parent = decode_gid(r);
  m.edge_index = r.u32();
  m.mirror_id = r.u32();
  m.depth = r.u64();
  m.state = r.str();
  return m;
}

void ResolveMsg::encode(BinWriter& w) const {
  w.u32(target);
  encode_gid(w, parent);
  w.u32(edge_index);
  w.u32(mirror_id);
  w.u8(overflow);
  encode_gid(w, child);
}

ResolveMsg ResolveMsg::decode(BinReader& r) {
  ResolveMsg m;
  m.target = r.u32();
  m.parent = decode_gid(r);
  m.edge_index = r.u32();
  m.mirror_id = r.u32();
  m.overflow = r.u8();
  if (m.overflow > 1) throw BinError("bad overflow flag in resolve");
  m.child = decode_gid(r);
  if (m.overflow == 0 && !m.child.valid()) {
    throw BinError("resolve carries no child and no overflow");
  }
  return m;
}

void RootAckMsg::encode(BinWriter& w) const { encode_gid(w, root); }

RootAckMsg RootAckMsg::decode(BinReader& r) {
  return RootAckMsg{decode_gid(r)};
}

void ProbeMsg::encode(BinWriter& w) const { w.u64(nonce); }

ProbeMsg ProbeMsg::decode(BinReader& r) { return ProbeMsg{r.u64()}; }

void ProbeAckMsg::encode(BinWriter& w) const {
  w.u64(nonce);
  w.u32(worker);
  w.u64(sent);
  w.u64(processed);
  w.u8(idle);
  w.u8(paused);
  w.u64(owned);
  w.u64(rss_bytes);
}

ProbeAckMsg ProbeAckMsg::decode(BinReader& r) {
  ProbeAckMsg m;
  m.nonce = r.u64();
  m.worker = r.u32();
  m.sent = r.u64();
  m.processed = r.u64();
  m.idle = r.u8();
  if (m.idle > 1) throw BinError("bad idle flag in probe ack");
  m.paused = r.u8();
  if (m.paused > 1) throw BinError("bad paused flag in probe ack");
  m.owned = r.u64();
  m.rss_bytes = r.u64();
  return m;
}

void WriteCheckpointMsg::encode(BinWriter& w) const { w.u64(generation); }

WriteCheckpointMsg WriteCheckpointMsg::decode(BinReader& r) {
  return WriteCheckpointMsg{r.u64()};
}

void CheckpointAckMsg::encode(BinWriter& w) const {
  w.u32(worker);
  w.u8(ok);
  w.str(error);
}

CheckpointAckMsg CheckpointAckMsg::decode(BinReader& r) {
  CheckpointAckMsg m;
  m.worker = r.u32();
  m.ok = r.u8();
  if (m.ok > 1) throw BinError("bad ok flag in checkpoint ack");
  m.error = r.str();
  return m;
}

void GraphPartMsg::encode(BinWriter& w) const {
  w.u32(worker);
  w.u8(has_root);
  w.u32(root_local);
  w.str(store);
  sched::codec::encode_nodes(w, nodes);
  w.u64(owned);
  w.u64(frontier_sent);
  w.u64(resolves_sent);
  w.u64(bytes_sent);
  w.u64(bytes_received);
  for (const auto c : sched::kStoreCounters) w.u64(store_stats.*c);
}

GraphPartMsg GraphPartMsg::decode(BinReader& r) {
  GraphPartMsg m;
  m.worker = r.u32();
  m.has_root = r.u8();
  if (m.has_root > 1) throw BinError("bad root flag in graph part");
  m.root_local = r.u32();
  m.store = r.str();
  m.nodes = sched::codec::decode_nodes(r);
  m.owned = r.u64();
  m.frontier_sent = r.u64();
  m.resolves_sent = r.u64();
  m.bytes_sent = r.u64();
  m.bytes_received = r.u64();
  for (const auto c : sched::kStoreCounters) m.store_stats.*c = r.u64();
  return m;
}

void WorkerCheckpointMsg::encode(BinWriter& w) const {
  w.u64(program_fp);
  w.u64(config_fp);
  sched::codec::encode_options(w, options);
  w.u32(n_workers);
  w.u32(worker_index);
  w.u64(generation);
  w.u8(has_root);
  w.u32(root_local);
  w.str(store);
  sched::codec::encode_nodes(w, nodes);
  w.u64(frontier.size());
  for (const auto& [local, depth] : frontier) {
    w.u32(local);
    w.u64(depth);
  }
}

WorkerCheckpointMsg WorkerCheckpointMsg::decode(BinReader& r) {
  WorkerCheckpointMsg m;
  m.program_fp = r.u64();
  m.config_fp = r.u64();
  m.options = sched::codec::decode_options(r);
  m.n_workers = r.u32();
  m.worker_index = r.u32();
  if (m.n_workers == 0 || m.worker_index >= m.n_workers) {
    throw BinError("bad worker identity in checkpoint");
  }
  m.generation = r.u64();
  m.has_root = r.u8();
  if (m.has_root > 1) throw BinError("bad root flag in checkpoint");
  m.root_local = r.u32();
  m.store = r.str();
  m.nodes = sched::codec::decode_nodes(r);
  const std::uint64_t nf = r.count(12);  // u32 local + u64 depth
  m.frontier.reserve(nf);
  for (std::uint64_t i = 0; i < nf; ++i) {
    const std::uint32_t local = r.u32();
    const std::uint64_t depth = r.u64();
    m.frontier.emplace_back(local, depth);
  }
  return m;
}

void ManifestMsg::encode(BinWriter& w) const {
  w.u64(program_fp);
  w.u64(config_fp);
  sched::codec::encode_options(w, options);
  w.u32(n_workers);
  w.u64(generation);
  encode_gid(w, root);
}

ManifestMsg ManifestMsg::decode(BinReader& r) {
  ManifestMsg m;
  m.program_fp = r.u64();
  m.config_fp = r.u64();
  m.options = sched::codec::decode_options(r);
  m.n_workers = r.u32();
  if (m.n_workers == 0) throw BinError("bad worker count in manifest");
  m.generation = r.u64();
  m.root = decode_gid(r);
  return m;
}

// --- helpers ---------------------------------------------------------

void write_frame_file(const std::string& path, FrameType type,
                      std::string_view payload) {
  try {
    support::write_file_atomic(path, encode_frame(type, payload));
  } catch (const support::IoError& e) {
    throw sched::CheckpointError(sched::CheckpointError::Kind::Io, e.what());
  }
}

Frame load_frame_file(const std::string& path, FrameType want) {
  const std::string bytes = sched::read_checkpoint_file(path);
  try {
    FrameReader fr;
    fr.feed(bytes.data(), bytes.size());
    std::optional<Frame> f = fr.next();
    if (!f.has_value() || !fr.idle()) {
      throw DistError(DistError::Kind::Corrupt,
                      "truncated or trailing bytes");
    }
    if (f->type != want) {
      throw DistError(DistError::Kind::Corrupt, "unexpected frame type");
    }
    return std::move(*f);
  } catch (const DistError& e) {
    throw sched::CheckpointError(sched::CheckpointError::Kind::Corrupt,
                                 std::string(e.what()) + " in " + path);
  }
}

std::string worker_checkpoint_path(const std::string& base,
                                   std::uint64_t generation,
                                   std::uint32_t worker) {
  return base + ".g" + std::to_string(generation) + ".w" +
         std::to_string(worker);
}

}  // namespace cac::dist
