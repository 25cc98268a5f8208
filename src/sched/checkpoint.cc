#include "sched/checkpoint.h"

#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "ptx/program.h"
#include "sched/checkpoint_codec.h"
#include "support/binio.h"
#include "support/io.h"

namespace cac::sched {

using support::BinError;
using support::BinReader;
using support::BinWriter;

namespace {

void encode_choice(BinWriter& w, const sem::Choice& c) {
  w.u8(static_cast<std::uint8_t>(c.kind));
  w.u32(c.block);
  w.u32(c.warp);
}

sem::Choice decode_choice(BinReader& r) {
  sem::Choice c;
  const std::uint8_t kind = r.u8();
  if (kind > static_cast<std::uint8_t>(sem::Choice::Kind::LiftBar)) {
    throw BinError("bad choice kind");
  }
  c.kind = static_cast<sem::Choice::Kind>(kind);
  c.block = r.u32();
  c.warp = r.u32();
  return c;
}

void encode_choices(BinWriter& w, const std::vector<sem::Choice>& cs) {
  w.u64(cs.size());
  for (const sem::Choice& c : cs) encode_choice(w, c);
}

std::vector<sem::Choice> decode_choices(BinReader& r) {
  const std::uint64_t n = r.count(9);  // u8 kind + 2x u32
  std::vector<sem::Choice> cs;
  cs.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) cs.push_back(decode_choice(r));
  return cs;
}

}  // namespace

// The options and graph-node codecs live in sched::codec
// (checkpoint_codec.h) so the distributed explorer's frames and
// per-worker checkpoint files stay byte-compatible with this format.
namespace codec {

void encode_options(BinWriter& w, const ExploreOptions& o) {
  w.u64(o.max_depth);
  w.u64(o.max_states);
  w.u8(o.stop_at_first_violation ? 1 : 0);
  w.u8(o.partial_order_reduction ? 1 : 0);
  w.u8(static_cast<std::uint8_t>(o.step_opts.order.kind));
  w.u64(o.step_opts.order.perm.size());
  for (const std::uint32_t p : o.step_opts.order.perm) w.u32(p);
  w.u8(o.step_opts.log_accesses ? 1 : 0);
  w.u64(o.por_independent_pcs.size());
  for (const std::uint32_t pc : o.por_independent_pcs) w.u32(pc);
}

ExploreOptions decode_options(BinReader& r) {
  ExploreOptions o;
  o.max_depth = r.u64();
  o.max_states = r.u64();
  o.stop_at_first_violation = r.u8() != 0;
  o.partial_order_reduction = r.u8() != 0;
  const std::uint8_t order = r.u8();
  if (order > static_cast<std::uint8_t>(sem::ThreadOrder::Kind::Permuted)) {
    throw support::BinError("bad thread-order kind");
  }
  o.step_opts.order.kind = static_cast<sem::ThreadOrder::Kind>(order);
  const std::uint64_t np = r.count(sizeof(std::uint32_t));
  o.step_opts.order.perm.reserve(np);
  for (std::uint64_t i = 0; i < np; ++i) {
    o.step_opts.order.perm.push_back(r.u32());
  }
  o.step_opts.log_accesses = r.u8() != 0;
  const std::uint64_t ni = r.count(sizeof(std::uint32_t));
  o.por_independent_pcs.reserve(ni);
  for (std::uint64_t i = 0; i < ni; ++i) {
    o.por_independent_pcs.push_back(r.u32());
  }
  return o;
}

namespace {

// Node flags: bit 0 expanded or classified, bit 1 terminal, bit 2 stuck.
constexpr std::uint8_t kNodeFlags[] = {0, 1, 3, 5};  // by NodeKind

}  // namespace

void encode_nodes(BinWriter& w, const std::vector<NodeRecord>& ns) {
  w.u64(ns.size());
  for (const NodeRecord& n : ns) {
    w.u32(n.id.v);
    w.u8(kNodeFlags[static_cast<std::uint8_t>(n.kind)]);
    w.str(n.stuck_reason);
    w.u64(n.edges.size());
    for (const EdgeRecord& e : n.edges) {
      encode_choice(w, e.choice);
      w.u8(static_cast<std::uint8_t>(e.kind == EdgeKind::Fault      ? 1
                                     : e.kind == EdgeKind::Overflow ? 2
                                                                    : 0));
      w.u64(e.child.v);
      w.str(e.fault);
    }
  }
}

std::vector<NodeRecord> decode_nodes(BinReader& r) {
  const std::uint64_t nn = r.count();
  std::vector<NodeRecord> ns;
  ns.reserve(nn);
  for (std::uint64_t i = 0; i < nn; ++i) {
    NodeRecord n;
    n.id = {r.u32()};
    const std::uint8_t flags = r.u8();
    const auto* kind = std::find(std::begin(kNodeFlags),
                                 std::end(kNodeFlags), flags);
    if (kind == std::end(kNodeFlags)) throw BinError("bad node flags");
    n.kind = static_cast<NodeKind>(kind - std::begin(kNodeFlags));
    n.stuck_reason = r.str();
    const std::uint64_t ne = r.count();
    n.edges.reserve(ne);
    for (std::uint64_t j = 0; j < ne; ++j) {
      EdgeRecord e;
      e.choice = decode_choice(r);
      const std::uint8_t eflags = r.u8();
      if (eflags > 2) throw BinError("bad edge flags");
      e.kind = eflags == 1   ? EdgeKind::Fault
               : eflags == 2 ? EdgeKind::Overflow
                             : EdgeKind::Child;
      e.child = Gid{r.u64()};
      e.fault = r.str();
      n.edges.push_back(std::move(e));
    }
    ns.push_back(std::move(n));
  }
  return ns;
}

}  // namespace codec

namespace {

using codec::decode_options;
using codec::encode_options;

// "CACCKPT" + format family byte.  A change to the payload layout bumps
// kFormatVersion, not the magic.
constexpr char kMagic[8] = {'C', 'A', 'C', 'C', 'K', 'P', 'T', '1'};
constexpr std::size_t kHeaderSize = 8 + 4 + 4 + 8 + 8;

void encode_payload(BinWriter& w, const Checkpoint& ck) {
  w.u8(static_cast<std::uint8_t>(ck.engine));
  w.u64(ck.program_fp);
  w.u64(ck.config_fp);
  encode_options(w, ck.options);

  if (!ck.store) {
    throw CheckpointError(CheckpointError::Kind::Io,
                          "checkpoint has no state store");
  }
  ck.store->encode(w);

  if (ck.engine == Checkpoint::Engine::Serial) {
    const ExploreResult& r = ck.verdict;
    w.u64(r.states_visited);
    w.u64(r.transitions);
    w.u64(r.min_steps_to_termination);
    w.u64(r.max_steps_to_termination);
    w.u8(static_cast<std::uint8_t>(r.limit_hit));
    w.u8(ck.limits_hit ? 1 : 0);
    w.u64(r.final_ids.size());
    for (const StateId id : r.final_ids) w.u32(id.v);
    w.u64(r.violations.size());
    for (const Violation& v : r.violations) {
      w.u8(static_cast<std::uint8_t>(v.kind));
      w.str(v.message);
      encode_choices(w, v.trace);
    }
    w.u64(ck.stack.size());
    for (const Checkpoint::SerialFrame& f : ck.stack) {
      w.u32(f.id.v);
      w.u64(f.next);
    }
    encode_choices(w, ck.path);
    return;
  }

  w.u32(ck.root.v);
  codec::encode_nodes(w, ck.nodes);
  w.u64(ck.frontier.size());
  for (const auto& [id, depth] : ck.frontier) {
    w.u32(id.v);
    w.u64(depth);
  }
}

Checkpoint decode_payload(BinReader& r) {
  Checkpoint ck;
  const std::uint8_t engine = r.u8();
  if (engine > static_cast<std::uint8_t>(Checkpoint::Engine::Parallel)) {
    throw support::BinError("bad engine tag");
  }
  ck.engine = static_cast<Checkpoint::Engine>(engine);
  ck.program_fp = r.u64();
  ck.config_fp = r.u64();
  ck.options = decode_options(r);

  ck.store = std::make_shared<StateStore>();
  ck.store->decode(r);

  if (ck.engine == Checkpoint::Engine::Serial) {
    ExploreResult& v = ck.verdict;
    v.states_visited = r.u64();
    v.transitions = r.u64();
    v.min_steps_to_termination = r.u64();
    v.max_steps_to_termination = r.u64();
    const std::uint8_t limit = r.u8();
    if (limit > static_cast<std::uint8_t>(ExploreResult::Limit::Interrupted)) {
      throw support::BinError("bad limit tag");
    }
    v.limit_hit = static_cast<ExploreResult::Limit>(limit);
    ck.limits_hit = r.u8() != 0;
    const std::uint64_t nf = r.count(sizeof(std::uint32_t));
    v.final_ids.reserve(nf);
    for (std::uint64_t i = 0; i < nf; ++i) v.final_ids.push_back({r.u32()});
    const std::uint64_t nv = r.count();
    v.violations.reserve(nv);
    for (std::uint64_t i = 0; i < nv; ++i) {
      Violation vi;
      const std::uint8_t kind = r.u8();
      if (kind > static_cast<std::uint8_t>(Violation::Kind::DepthExceeded)) {
        throw support::BinError("bad violation kind");
      }
      vi.kind = static_cast<Violation::Kind>(kind);
      vi.message = r.str();
      vi.trace = decode_choices(r);
      v.violations.push_back(std::move(vi));
    }
    const std::uint64_t ns = r.count(12);  // u32 id + u64 next
    ck.stack.reserve(ns);
    for (std::uint64_t i = 0; i < ns; ++i) {
      Checkpoint::SerialFrame f;
      f.id = {r.u32()};
      f.next = r.u64();
      ck.stack.push_back(f);
    }
    ck.path = decode_choices(r);
    return ck;
  }

  ck.root = {r.u32()};
  ck.nodes = codec::decode_nodes(r);
  const std::uint64_t nq = r.count(12);  // u32 id + u64 depth
  ck.frontier.reserve(nq);
  for (std::uint64_t i = 0; i < nq; ++i) {
    const std::uint32_t id = r.u32();
    const std::uint64_t depth = r.u64();
    ck.frontier.emplace_back(StateId{id}, depth);
  }
  return ck;
}

}  // namespace

void Checkpoint::save(const std::string& path) const {
  BinWriter w;
  encode_payload(w, *this);
  const std::string& payload = w.buffer();

  BinWriter file;
  file.bytes(kMagic, sizeof(kMagic));
  file.u32(kFormatVersion);
  file.u32(0);  // reserved
  file.u64(payload.size());
  file.u64(fnv1a(payload));
  file.bytes(payload.data(), payload.size());

  // Atomic write-then-rename (support::io, which also hosts the fault
  // seam): the previous checkpoint at `path` stays intact until the
  // new one is fully on disk.
  try {
    support::write_file_atomic(path, file.buffer());
  } catch (const support::IoError& e) {
    throw CheckpointError(CheckpointError::Kind::Io, e.what());
  }
}

std::string read_checkpoint_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    throw CheckpointError(CheckpointError::Kind::Io, "cannot open " + path);
  }
  std::string bytes;
  char buf[1 << 16];
  std::size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) bytes.append(buf, n);
  const bool err = std::ferror(f) != 0;
  std::fclose(f);
  if (err) {
    throw CheckpointError(CheckpointError::Kind::Io, "read error on " + path);
  }
  return bytes;
}

Checkpoint Checkpoint::load(const std::string& path) {
  const std::string file = read_checkpoint_file(path);
  if (file.size() < kHeaderSize) {
    throw CheckpointError(CheckpointError::Kind::Corrupt,
                          "truncated header in " + path);
  }
  if (std::memcmp(file.data(), kMagic, sizeof(kMagic)) != 0) {
    throw CheckpointError(CheckpointError::Kind::Corrupt,
                          path + " is not a checkpoint file");
  }
  BinReader header(std::string_view(file).substr(
      sizeof(kMagic), kHeaderSize - sizeof(kMagic)));
  const std::uint32_t version = header.u32();
  if (version != kFormatVersion) {
    throw CheckpointError(
        CheckpointError::Kind::VersionMismatch,
        path + " has format version " + std::to_string(version) +
            ", this build reads version " + std::to_string(kFormatVersion));
  }
  // The reserved word must be zero until a format revision assigns it
  // meaning — validating it keeps every header byte covered, so any
  // single-byte damage to the header is rejected structurally.
  if (header.u32() != 0) {
    throw CheckpointError(CheckpointError::Kind::Corrupt,
                          "nonzero reserved header field in " + path);
  }
  const std::uint64_t payload_size = header.u64();
  if (payload_size != file.size() - kHeaderSize) {
    throw CheckpointError(CheckpointError::Kind::Corrupt,
                          "truncated payload in " + path);
  }
  const std::string_view payload(file.data() + kHeaderSize, payload_size);
  if (fnv1a(payload) != header.u64()) {
    throw CheckpointError(CheckpointError::Kind::Corrupt,
                          "checksum mismatch in " + path);
  }

  try {
    BinReader r(payload);
    Checkpoint ck = decode_payload(r);
    if (!r.done()) {
      throw support::BinError("trailing bytes after payload");
    }
    return ck;
  } catch (const support::BinError& e) {
    throw CheckpointError(CheckpointError::Kind::Corrupt,
                          std::string(e.what()) + " in " + path);
  } catch (const KernelError& e) {
    throw CheckpointError(CheckpointError::Kind::Corrupt,
                          std::string(e.what()) + " in " + path);
  }
}

std::uint64_t program_fingerprint(const ptx::Program& prg) {
  return fnv1a(ptx::to_string(prg));
}

std::uint64_t config_fingerprint(const sem::KernelConfig& kc) {
  Hasher h;
  h.mix(kc.grid.x).mix(kc.grid.y).mix(kc.grid.z);
  h.mix(kc.block.x).mix(kc.block.y).mix(kc.block.z);
  h.mix(kc.warp_size);
  return h.value();
}

void verify_resume(std::uint64_t program_fp, std::uint64_t config_fp,
                   const ExploreOptions& recorded, const ptx::Program& prg,
                   const sem::KernelConfig& kc, const ExploreOptions& opts) {
  const auto fail = [](const std::string& msg) {
    throw CheckpointError(CheckpointError::Kind::Mismatch, msg);
  };
  if (program_fp != program_fingerprint(prg)) {
    fail("program differs from the checkpointed run");
  }
  if (config_fp != config_fingerprint(kc)) {
    fail("kernel configuration differs from the checkpointed run");
  }
  // encode_options writes exactly the structural fields.
  BinWriter a, b;
  encode_options(a, recorded);
  encode_options(b, opts);
  if (a.buffer() != b.buffer()) {
    fail("exploration options differ from the checkpointed run");
  }
}

std::uint64_t current_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long long pages = 0, resident = 0;
  const int got = std::fscanf(f, "%llu %llu", &pages, &resident);
  std::fclose(f);
  if (got != 2) return 0;
  const long page = ::sysconf(_SC_PAGESIZE);
  return resident * static_cast<std::uint64_t>(page > 0 ? page : 4096);
}

std::string to_string(CheckpointError::Kind k) {
  switch (k) {
    case CheckpointError::Kind::Io: return "io";
    case CheckpointError::Kind::Corrupt: return "corrupt";
    case CheckpointError::Kind::VersionMismatch: return "version-mismatch";
    case CheckpointError::Kind::Mismatch: return "mismatch";
  }
  return "?";
}

}  // namespace cac::sched
