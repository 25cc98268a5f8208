// Content-addressed verdict cache (docs/serve.md).
//
// A verification verdict is a pure function of the *structural* content
// of a request: the canonical lowered module (whitespace, comments, and
// source file names don't matter — two textually different PTX files
// that lower to the same kernels are the same job), the launch, and the
// structural exploration/symbolic options.  Transient knobs —
// deadlines, memory budgets, store tiering, checkpoint paths — change
// how fast or how safely a verdict is computed, never which verdict, so
// they are deliberately excluded from the key.
//
// The cache stores the fully serialized results payload (the exact
// bytes `front::to_json` produced) plus the exit code, so a cache hit
// replays the original response byte-for-byte.  Bounded LRU in memory;
// optionally persisted one-file-per-key under a directory so a
// restarted server keeps its warm verdicts.
#pragma once

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "front/request.h"

namespace cac::front {

/// 128-bit content address (two independently seeded FNV-1a streams
/// over the canonical request text).
struct CacheKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend bool operator==(const CacheKey&, const CacheKey&) = default;
  /// 32 hex digits; the on-disk file stem.
  [[nodiscard]] std::string hex() const;
};

/// Derive the key for a request.  Lowers the PTX source(s) to reach the
/// canonical form, so it throws PtxError on malformed input — callers
/// report that as a usage error without touching the cache.
CacheKey cache_key(const Request& req);

/// Whether a run's results may be cached: every per-kernel result must
/// be deterministic on re-run — complete, a finding, or stopped by a
/// *structural* limit (max-states/max-depth, the symbolic bounds).
/// Runs cut short by wall-clock/memory budgets or interruption would
/// resolve differently on other hardware and are never cached.
bool cacheable(const std::vector<Result>& results);

class VerdictCache {
 public:
  struct Options {
    std::size_t max_entries = 1024;
    /// Bound on the summed payload bytes held in memory.
    std::uint64_t max_bytes = 64ull << 20;
    /// When nonempty, entries persist here (one "<hex>.json" per key,
    /// written atomically via rename) and survive restarts; get() falls
    /// back to disk on a memory miss.
    std::string dir;
  };

  struct Entry {
    int exit_code = 0;
    /// The serialized results array, verbatim.
    std::string results_json;
  };

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t insertions = 0;
    std::uint64_t evictions = 0;
    /// Memory misses served from the persistence directory.
    std::uint64_t disk_hits = 0;
    /// Best-effort disk persists that failed (ENOSPC/EIO).  The entry
    /// stays resident and correct; only restart warm-up is lost.
    std::uint64_t persist_failures = 0;
  };

  VerdictCache();
  explicit VerdictCache(Options opts);

  /// Thread-safe lookup; a hit refreshes LRU recency.
  std::optional<Entry> get(const CacheKey& key);
  /// Thread-safe insert (idempotent for an existing key); evicts LRU
  /// entries past the bounds and writes the disk file when persistent.
  void put(const CacheKey& key, Entry entry);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] Stats stats() const;

 private:
  struct Node {
    CacheKey key;
    Entry entry;
  };

  void evict_locked();
  [[nodiscard]] std::string path_for(const CacheKey& key) const;

  Options opts_;
  mutable std::mutex mu_;
  std::list<Node> lru_;  // front = most recent
  std::unordered_map<std::string, std::list<Node>::iterator> index_;
  std::uint64_t resident_bytes_ = 0;
  Stats stats_;
};

}  // namespace cac::front
