// Wire format of the distributed explorer (docs/distributed.md).
//
// Everything that crosses a process boundary — frontier states, edge
// resolutions, the control protocol, per-worker checkpoint files and
// the coordinator manifest — is one *frame*: a fixed 20-byte header
// (magic, protocol version, frame type, payload length, and an FNV-1a
// checksum covering the header prefix plus the payload, so damage to
// any frame byte is detected) followed by the payload, encoded with the same
// support/binio.h codec the single-process checkpoint format uses.
// Frame payloads that mention schedule choices or exploration options
// reuse sched::codec (sched/checkpoint_codec.h) byte-for-byte, and
// frontier states travel as StateStore::encode_state records, so the
// distributed layer introduces no second serialization of any sched
// concept.
//
// Robustness contract (pinned by tests/dist/frame_test.cc): a peer fed
// truncated, bit-flipped, or length-lying bytes raises a structured
// DistError/support::BinError and never crashes, hangs, or acts on a
// partially decoded message.  The checksum is validated before any
// payload decoding; counts are validated against the remaining bytes
// before any allocation.
#pragma once

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "sched/checkpoint.h"
#include "sched/explore.h"
#include "sched/graph.h"

namespace cac::dist {

/// Structured failure anywhere in the distributed layer.
class DistError : public std::runtime_error {
 public:
  enum class Kind : std::uint8_t {
    Io,        // socket / file syscall failure
    Corrupt,   // malformed frame: bad magic, checksum, truncation
    Protocol,  // well-formed frame that violates the protocol state
    PeerDied,  // a peer process vanished and recovery is exhausted
    Timeout,   // a deadline expired waiting on a peer (retryable)
  };

  DistError(Kind kind, const std::string& msg)
      : std::runtime_error("dist: " + msg), kind_(kind) {}

  [[nodiscard]] Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

std::string to_string(DistError::Kind k);

/// Global state id (sched/graph.h): edges in the distributed state
/// graph name children by Gid, so a graph part is meaningful outside
/// the process that built it.
using sched::Gid;

/// Which worker owns a state, by its memoized machine hash.  Same
/// splitmix-finalized top bits as the in-process 64-way VisitedShards
/// (explore_parallel.cc) — the process partition is the shard map
/// folded onto n_workers, so every structurally equal machine maps to
/// exactly one owner in every process.
inline std::uint32_t owner_of(std::uint64_t hash, std::uint32_t n_workers) {
  return (static_cast<std::uint32_t>(hash >> 58) & 63u) % n_workers;
}

// --- frame layer -----------------------------------------------------

enum class FrameType : std::uint8_t {
  // worker <-> coordinator (routed work frames carry a u32 target
  // worker as their first payload field)
  kSetup = 1,        // coordinator -> worker: identity, options, resume
  kState = 2,        // routed: frontier state for its owner
  kResolve = 3,      // routed: owner's verdict on a kState
  kRootAck = 4,      // root owner -> coordinator: the root Gid
  kProbe = 5,        // coordinator -> worker: termination probe
  kProbeAck = 6,     // worker -> coordinator: counters + idleness
  kPause = 7,        // coordinator -> worker: stop expanding
  kResume = 8,       // coordinator -> worker: resume expanding
  kWriteCheckpoint = 9,   // coordinator -> worker: persist partition
  kCheckpointAck = 10,    // worker -> coordinator
  kDump = 11,        // coordinator -> worker: send your graph part
  kGraphPart = 12,   // worker -> coordinator: nodes + store + stats
  kStop = 13,        // coordinator -> worker: exit
  // on-disk frames (never sent on a socket)
  kWorkerCheckpoint = 14,  // one worker's partition snapshot
  kManifest = 15,          // coordinator's generation commit record
  // piecemeal recovery (docs/distributed.md): when one worker dies the
  // survivors roll back in-process instead of the whole fleet being
  // relaunched.
  kRollback = 16,     // coordinator -> worker: reload generation g
  kRollbackAck = 17,  // worker -> coordinator: rollback done
  // verification-as-a-service (docs/serve.md): `cacval serve` and its
  // clients exchange UTF-8 JSON documents as frame payloads, reusing
  // this layer's checksummed length-prefixed framing verbatim.
  kServeRequest = 18,   // client -> server: one job request
  kServeResponse = 19,  // server -> client: the job's final response
  kServeEvent = 20,     // server -> client: streamed progress event
};

// v6: warps travel in the dense per-warp encoding (sem/warp.h), the
// same bytes as checkpoint format v4.  v5: GraphPartMsg store stats
// carry degraded_spill (the worker's spill tier failed and it degraded
// to resident-only).  v4 added the
// kServeRequest/kServeResponse/kServeEvent frames
// (JSON payloads for the verification service) and SetupMsg carries
// die_after_generation.  v3 added the
// transient store-tier knobs to SetupMsg (they are not part of
// codec::encode_options, which persists structural fields only) and
// the kRollback/kRollbackAck recovery frames.
constexpr std::uint8_t kProtoVersion = 6;
constexpr std::size_t kFrameHeaderSize = 4 + 1 + 1 + 2 + 4 + 8;
/// Upper bound on one payload: a graph part carries a whole partition,
/// so the cap is generous — it exists to reject length lies, not to
/// size-limit honest peers.
constexpr std::uint64_t kMaxFramePayload = 1ull << 30;

struct Frame {
  FrameType type = FrameType::kStop;
  std::string payload;
};

/// Header + checksum + payload, ready to write to a socket or file.
std::string encode_frame(FrameType type, std::string_view payload);

/// Incremental frame parser over a byte stream.  feed() appends raw
/// bytes; next() yields the next complete, checksum-verified frame or
/// nullopt when more bytes are needed.  Throws DistError(Corrupt) on
/// bad magic / version / reserved bytes, an implausible length, or a
/// checksum mismatch — the stream is then poisoned and must be
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

// --- message payloads ------------------------------------------------
//
// Every message is a struct with encode()/decode(); decode throws
// support::BinError on malformed payloads (wrapped into
// DistError(Corrupt) by the peers).  Routed frames (kState, kResolve)
// put `target` first so the coordinator forwards by peeking exactly
// four payload bytes.

constexpr std::uint32_t kNoWorker = 0xffffffffu;

struct SetupMsg {
  std::uint32_t worker_index = 0;
  std::uint32_t n_workers = 1;
  std::uint64_t program_fp = 0;
  std::uint64_t config_fp = 0;
  /// Structural option fields only (sched::codec::encode_options).
  sched::ExploreOptions options;
  /// Base path for this run's per-worker checkpoint files
  /// ("<base>.g<gen>.w<idx>"); empty disables checkpointing.
  std::string checkpoint_base;
  /// Resume: reload the partition from "<resume_base>.g<gen>.w<idx>".
  std::uint8_t resume = 0;
  std::string resume_base;
  std::uint64_t generation = 0;
  /// Deterministic fault seam (tools/dist_crash_drill.py): the worker
  /// SIGKILLs itself once it owns this many states.  kNoWorker / 0
  /// disables.  The coordinator clears the seam after the first death
  /// so relaunched workers survive.
  std::uint32_t die_worker = kNoWorker;
  std::uint64_t die_after_states = 0;
  /// Hold the death until a checkpoint for generation >= this has been
  /// written by this worker and the coordinator resumed it (0 = no
  /// gate); see DistOptions::die_after_generation.
  std::uint64_t die_after_generation = 0;
  /// Transient store-tier knobs (sched::store_options), sent apart
  /// because codec::encode_options persists structural fields only.
  /// The coordinator divides the run's resident budget by n_workers so
  /// the fleet's total matches the configured bound.
  sched::StoreOptions store;

  void encode(support::BinWriter& w) const;
  static SetupMsg decode(support::BinReader& r);
};

struct StateMsg {
  std::uint32_t target = 0;  // owner of the carried state
  /// Discovering node (its worker is who gets the kResolve); invalid
  /// for the coordinator's root seed (answered with kRootAck instead).
  Gid parent;
  std::uint32_t edge_index = 0;
  /// Sender's mirror-store id for this state, echoed in the kResolve
  /// so the sender can patch every edge waiting on it.
  std::uint32_t mirror_id = 0;
  std::uint64_t depth = 0;
  /// StateStore::encode_state record.
  std::string state;

  void encode(support::BinWriter& w) const;
  static StateMsg decode(support::BinReader& r);
};

struct ResolveMsg {
  std::uint32_t target = 0;  // the worker that sent the kState
  Gid parent;
  std::uint32_t edge_index = 0;
  std::uint32_t mirror_id = 0;
  std::uint8_t overflow = 0;  // owner's partition is at max_states
  Gid child;                  // invalid iff overflow

  void encode(support::BinWriter& w) const;
  static ResolveMsg decode(support::BinReader& r);
};

struct RootAckMsg {
  Gid root;  // invalid iff even the root was over the state cap

  void encode(support::BinWriter& w) const;
  static RootAckMsg decode(support::BinReader& r);
};

struct ProbeMsg {
  std::uint64_t nonce = 0;

  void encode(support::BinWriter& w) const;
  static ProbeMsg decode(support::BinReader& r);
};

struct ProbeAckMsg {
  std::uint64_t nonce = 0;
  std::uint32_t worker = 0;
  /// Monotone work-frame counters (kState + kResolve only): the
  /// termination detector declares quiescence when two consecutive
  /// probe rounds observe all-idle and identical, balanced counters.
  std::uint64_t sent = 0;
  std::uint64_t processed = 0;
  std::uint8_t idle = 0;    // no queued expansion tasks
  std::uint8_t paused = 0;  // parked by kPause
  std::uint64_t owned = 0;  // states in this worker's partition
  std::uint64_t rss_bytes = 0;

  void encode(support::BinWriter& w) const;
  static ProbeAckMsg decode(support::BinReader& r);
};

struct WriteCheckpointMsg {
  std::uint64_t generation = 0;

  void encode(support::BinWriter& w) const;
  static WriteCheckpointMsg decode(support::BinReader& r);
};

/// Piecemeal recovery: a survivor discards its in-memory partition and
/// reloads "<base>.g<gen>.w<idx>" — the same file a freshly forked
/// replacement resumes from — so the whole fleet re-enters the last
/// committed generation without being re-exec'd.
struct RollbackMsg {
  std::uint64_t generation = 0;
  std::string resume_base;
  /// Epoch counter for the recovery barrier: frames from before the
  /// rollback are stale and the coordinator discards work frames until
  /// every survivor acked this epoch.
  std::uint32_t epoch = 0;

  void encode(support::BinWriter& w) const;
  static RollbackMsg decode(support::BinReader& r);
};

struct RollbackAckMsg {
  std::uint32_t worker = 0;
  std::uint32_t epoch = 0;
  std::uint8_t ok = 0;
  std::string error;

  void encode(support::BinWriter& w) const;
  static RollbackAckMsg decode(support::BinReader& r);
};

struct CheckpointAckMsg {
  std::uint32_t worker = 0;
  std::uint8_t ok = 0;
  std::string error;

  void encode(support::BinWriter& w) const;
  static CheckpointAckMsg decode(support::BinReader& r);
};

/// One worker's slice of the distributed state graph: its node records
/// (edges in eligible-choice order, exactly as the serial engine would
/// enumerate them), the encoded partition StateStore the coordinator
/// materializes finals from, and the worker's stats.
struct GraphPartMsg {
  std::uint32_t worker = 0;
  std::uint8_t has_root = 0;
  std::uint32_t root_local = 0;
  std::string store;  // StateStore::encode bytes
  std::vector<sched::NodeRecord> nodes;
  // stats
  std::uint64_t owned = 0;
  std::uint64_t frontier_sent = 0;   // kState frames sent
  std::uint64_t resolves_sent = 0;   // kResolve frames sent
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  /// This worker's partition-store tier accounting; the coordinator
  /// sums the parts into ExploreResult::store_stats.
  sched::StateStore::Stats store_stats;

  void encode(support::BinWriter& w) const;
  static GraphPartMsg decode(support::BinReader& r);
};

/// On-disk snapshot of one worker's partition (frame kWorkerCheckpoint
/// at "<base>.g<gen>.w<idx>").  Written only at a coordinator-enforced
/// quiescent cut, so there are never unresolved cross-worker edges or
/// in-flight frames to persist.
struct WorkerCheckpointMsg {
  std::uint64_t program_fp = 0;
  std::uint64_t config_fp = 0;
  sched::ExploreOptions options;
  std::uint32_t n_workers = 1;
  std::uint32_t worker_index = 0;
  std::uint64_t generation = 0;
  std::uint8_t has_root = 0;
  std::uint32_t root_local = 0;
  std::string store;  // StateStore::encode bytes
  std::vector<sched::NodeRecord> nodes;
  /// Discovered-but-unexpanded (StateId.v, depth) pairs.
  std::vector<std::pair<std::uint32_t, std::uint64_t>> frontier;

  void encode(support::BinWriter& w) const;
  static WorkerCheckpointMsg decode(support::BinReader& r);
};

/// The coordinator's generation commit record (frame kManifest at the
/// checkpoint path).  A generation exists iff its manifest does: the
/// manifest is renamed into place only after every worker acknowledged
/// its "<base>.g<gen>.w<idx>" file, so resume always sees a complete,
/// mutually consistent set of partition snapshots.
struct ManifestMsg {
  std::uint64_t program_fp = 0;
  std::uint64_t config_fp = 0;
  sched::ExploreOptions options;
  std::uint32_t n_workers = 1;
  std::uint64_t generation = 0;
  Gid root;

  void encode(support::BinWriter& w) const;
  static ManifestMsg decode(support::BinReader& r);
};

// --- helpers ---------------------------------------------------------

/// Atomic write of a single on-disk frame (tmp + fsync + rename) and
/// its fully-validating load.  Errors surface as sched::CheckpointError
/// so distributed checkpoint failures compose with the existing
/// cacval/ctest handling of single-process checkpoint damage.
void write_frame_file(const std::string& path, FrameType type,
                      std::string_view payload);
Frame load_frame_file(const std::string& path, FrameType want);

/// Per-worker checkpoint file path for one generation.
std::string worker_checkpoint_path(const std::string& base,
                                   std::uint64_t generation,
                                   std::uint32_t worker);

}  // namespace cac::dist
