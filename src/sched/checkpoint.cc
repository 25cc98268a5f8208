#include "sched/checkpoint.h"

#include <unistd.h>

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

}  // namespace codec

namespace {

using codec::decode_options;
using codec::encode_options;

/// One schedule choice: u8 kind, u32 block, u32 warp.
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

// "CACCKPT" + format family byte.  A change to the payload layout bumps
// kFormatVersion, not the magic.
constexpr char kMagic[8] = {'C', 'A', 'C', 'C', 'K', 'P', 'T', '1'};
constexpr std::size_t kHeaderSize = 8 + 4 + 4 + 8 + 8;

void encode_payload(BinWriter& w, const Checkpoint& ck) {
  w.u64(ck.program_fp);
  w.u64(ck.config_fp);
  encode_options(w, ck.options);

  if (!ck.store) {
    throw CheckpointError(CheckpointError::Kind::Io,
                          "checkpoint has no state store");
  }
  ck.store->encode(w);

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
  for (const Checkpoint::Frame& f : ck.stack) {
    w.u32(f.id.v);
    w.u64(f.next);
  }
  encode_choices(w, ck.path);
}

Checkpoint decode_payload(BinReader& r) {
  Checkpoint ck;
  ck.program_fp = r.u64();
  ck.config_fp = r.u64();
  ck.options = decode_options(r);

  ck.store = std::make_shared<StateStore>();
  ck.store->decode(r);

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
    Checkpoint::Frame f;
    f.id = {r.u32()};
    f.next = r.u64();
    ck.stack.push_back(f);
  }
  ck.path = decode_choices(r);
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

namespace {

/// The bytes of a checkpoint file.  Throws CheckpointError(Io).
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

}  // namespace

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
