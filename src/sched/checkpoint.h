// Crash-safe exploration: versioned, checksummed on-disk snapshots of
// an in-flight schedule exploration.
//
// A checkpoint captures everything the DFS needs to continue to a
// verdict *byte-identical* to an uninterrupted run:
//
//  * the interned StateStore (fragments + state tuples, ids preserved
//    exactly — see StateStore::encode);
//  * the structural exploration options (so a resume under different
//    bounds is rejected instead of silently diverging);
//  * fingerprints of the program and kernel configuration;
//  * the DFS's progress: its stack, path and accumulated verdict state.
//
// On-disk format: an 8-byte magic, a format version, the payload size
// and an FNV-1a checksum of the payload, then the payload itself
// (support/binio.h encoding).  Files are written atomically — payload
// to `path + ".tmp"`, fsync, then rename — so a crash mid-write can
// never destroy the last good checkpoint.  load() rejects truncated,
// bit-flipped, or version-skewed files with a structured
// CheckpointError; it never crashes and never returns partially
// decoded state.
//
// Transient stop reasons (deadline, memory watermark, SIGINT) are
// deliberately *not* persisted: a resumed run that completes reports
// itself exhaustive, exactly as an uninterrupted run would.  Only
// structural limits (max-states, max-depth) survive, because they
// would have tripped in the uninterrupted run too.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "sched/explore.h"

namespace cac::sched {

/// Structured failure loading, saving, or resuming from a checkpoint.
class CheckpointError : public std::runtime_error {
 public:
  enum class Kind : std::uint8_t {
    Io,               // file unreadable / unwritable
    Corrupt,          // truncated, checksum mismatch, malformed payload
    VersionMismatch,  // written by an incompatible format version
    Mismatch,         // program / config / options differ from the run
  };

  CheckpointError(Kind kind, const std::string& msg)
      : std::runtime_error("checkpoint: " + msg), kind_(kind) {}

  [[nodiscard]] Kind kind() const { return kind_; }

 private:
  Kind kind_;
};

std::string to_string(CheckpointError::Kind k);

/// One snapshot of an in-flight exploration.  Engines construct and
/// consume these; save()/load() move them to and from disk.
struct Checkpoint {
  // v7: the store section holds one warp pool, one bank pool and one
  // state table (no shards), with no per-state stride word and only the
  // materialized-bytes counter.  v6: one payload, the DFS's; the engine
  // tag and the parallel graph section are gone.  v5: that section's
  // nodes used the graph codec of the distributed frames.  v4: warp
  // fragments are the dense per-warp encoding (sem/warp.h).  Older
  // files are rejected with VersionMismatch rather than misdecoded.
  static constexpr std::uint32_t kFormatVersion = 7;

  /// fnv1a over the canonical program text / config fields; resume
  /// refuses a checkpoint whose fingerprints do not match the run's.
  std::uint64_t program_fp = 0;
  std::uint64_t config_fp = 0;

  /// The structural options of the original run (bounds, POR, step
  /// order, stop policy).  Transient fields (budgets, checkpoint
  /// paths, store tiering) are not persisted and stay default.
  ExploreOptions options;

  /// Every state visited so far, ids preserved.
  std::shared_ptr<StateStore> store;

  // --- the DFS -------------------------------------------------------

  struct Frame {
    StateId id;
    std::uint64_t next = 0;  // index of the next eligible choice
  };
  std::vector<Frame> stack;       // bottom to top
  std::vector<sem::Choice> path;  // choices reaching the top frame
  /// The verdict so far: counters, min/max steps, limit_hit,
  /// violations, and final_ids in first-visit order.  DFS colours are
  /// not stored: a stacked state is on the stack, every other interned
  /// state is done.
  ExploreResult verdict;
  bool limits_hit = false;

  /// Atomic write-then-rename to `path`; throws CheckpointError(Io).
  void save(const std::string& path) const;

  /// Parse and fully validate a checkpoint file.  Throws
  /// CheckpointError — Io / Corrupt / VersionMismatch — and never
  /// returns partially decoded state.
  static Checkpoint load(const std::string& path);
};

/// Fingerprint of a kernel for resume compatibility (the canonical
/// printed form, so structurally equal programs agree).
std::uint64_t program_fingerprint(const ptx::Program& prg);
std::uint64_t config_fingerprint(const sem::KernelConfig& kc);

/// Throws CheckpointError(Mismatch) unless a run recorded with these
/// fingerprints and structural options (a checkpoint's, or a
/// distributed manifest's) can be continued as this one.
void verify_resume(std::uint64_t program_fp, std::uint64_t config_fp,
                   const ExploreOptions& recorded, const ptx::Program& prg,
                   const sem::KernelConfig& kc, const ExploreOptions& opts);

/// The bytes of a checkpoint file, or of a distributed run's frame
/// file.  Throws CheckpointError(Io).
std::string read_checkpoint_file(const std::string& path);

/// Current resident set size in bytes (the RSS-watermark budget's
/// measurement; /proc-based).  Returns 0 where unavailable, which
/// disables the watermark rather than tripping it.
std::uint64_t current_rss_bytes();

}  // namespace cac::sched
