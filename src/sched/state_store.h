// Interned, copy-on-write, *tiered* storage for explored machine states.
//
// The explorers realize the paper's "for every scheduler" quantification
// (Fig. 3) by memoizing every distinct reachable state.  Storing full
// sem::Machine copies makes resident bytes per state the scaling wall:
// two adjacent states differ in one warp and at most one memory bank,
// yet value storage duplicates everything.  This module is the standard
// explicit-state model-checking answer (SPIN's collapse compression,
// shared-state representations in GPU checkers): decompose a state into
// content-addressed *fragments* —
//
//   * one fragment per memory bank (Global, Const, Param, and each
//     block's Shared bank), shared by refcount with the copy-on-write
//     mem::Memory representation, so interning a bank is a shared_ptr
//     copy, never a byte copy;
//   * one fragment per warp (its divergence tree and the dense register
//     and predicate arrays of its lanes, sem/warp.h);
//
// deduplicate each fragment by structural hash with full structural
// equality as the tie-breaker (a hash collision can cost time, never
// merge distinct fragments), and represent a whole state as a small
// tuple of fragment ids.  Whole-state dedup then reduces to comparing
// id tuples: fragments are interned, so equal machines produce equal
// tuples and vice versa.
//
// Beyond 10^6 states even the deduplicated fragments outgrow RAM, so
// each fragment lives in one of three tiers:
//
//   hot   — the decoded object (sem::Warp / shared Bank), ready to use;
//   warm  — its canonical binio encoding (or a delta against another
//           fragment's encoding) as bytes in RAM;
//   cold  — the same bytes appended to an unlinked, mmap-read spill
//           segment file on disk.
//
// A clock (second-chance) sweep per fragment shard demotes fragments
// one tier at a time whenever `resident_bytes` exceeds the configured
// budget; any access transparently rematerializes from whatever tier
// the fragment is in.  Dedup against a non-hot fragment compares
// canonical encodings instead of objects — sem::Warp::encode and
// Bank::encode are deterministic and injective, so byte equality of
// encodings is structural equality.  Warp fragments additionally
// delta-encode against the matching warp of their parent state (one
// semantic step usually touches a register or two), which is what makes
// reduce-like kernels — whose warp trees differ by a few registers per
// step — cheap to keep resident.
//
// In front of each visited-state shard sits a small bloom filter: the
// common "definitely new" path is decided by two atomic word loads with
// no lock and no allocation.  Positives (real or false) fall through to
// the exact sharded probe, and the filter is re-checked under the shard
// lock before an insert skips the probe, so dedup stays exact.
//
// Thread safety: intern() and materialize() are safe to call
// concurrently, though no engine does any more: the serial DFS and
// each distributed worker intern from a single thread.  Fragment pools
// and the state table are sharded by hash, each shard behind its own
// mutex; the spill file has its own leaf mutex; no two shard locks are
// ever held at once (delta chains are resolved link by link).
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "sem/state.h"

namespace cac::support {
class BinWriter;
class BinReader;
}  // namespace cac::support

namespace cac::sched {

/// Opaque handle to an interned machine state.  Valid for the lifetime
/// of the StateStore that issued it.
struct StateId {
  static constexpr std::uint32_t kInvalid = 0xffffffffu;
  std::uint32_t v = kInvalid;

  [[nodiscard]] bool valid() const { return v != kInvalid; }
  friend bool operator==(const StateId&, const StateId&) = default;
};

/// Tiering knobs.  All of them are *transient* resource policy — they
/// shape where bytes live, never which states exist or what verdict an
/// exploration reaches — so none of them enter the structural checkpoint
/// option fingerprint, and a resumed store may be configured with
/// different values than the run that wrote the checkpoint.
struct StoreOptions {
  /// Test seam, see StateStore(hash_mask).  Fixed at construction;
  /// configure() ignores it.
  std::uint64_t hash_mask = ~0ull;
  /// Directory for the spill segment file.  Empty disables the cold
  /// tier: eviction then stops at the warm (encoded-in-RAM) tier.
  std::string spill_dir;
  /// Evict until `resident_bytes` is back under this.  0 disables
  /// eviction entirely (everything stays hot — the pre-tiering
  /// behaviour, and the default).
  std::uint64_t resident_budget_bytes = 0;
  /// Bloom bits per visited-state shard, rounded up to a power of two.
  /// 0 means the default (1<<17).  Filters are allocated lazily per
  /// shard on first insert.
  std::uint64_t bloom_bits_per_shard = 0;
  /// Longest allowed delta chain (fragment -> base -> ... -> full
  /// encoding).  0 disables delta encoding.
  std::uint32_t delta_max_depth = 8;
};

class StateStore {
 public:
  StateStore() = default;
  /// Test seam: `hash_mask` is ANDed onto every fragment and state hash
  /// before bucket indexing.  A mask of 0 forces every entry into one
  /// bucket (and saturates the bloom filters instantly), so dedup
  /// decisions rest on structural equality alone — the
  /// collision-robustness property the tests pin.
  explicit StateStore(std::uint64_t hash_mask) : hash_mask_(hash_mask) {}
  explicit StateStore(const StoreOptions& opts) : hash_mask_(opts.hash_mask) {
    configure(opts);
  }
  ~StateStore();

  StateStore(const StateStore&) = delete;
  StateStore& operator=(const StateStore&) = delete;

  /// Apply tiering knobs to a live store (`hash_mask` excluded — it is
  /// fixed at construction).  The engines call this right after
  /// checkpoint decode, which always produces a default-configured
  /// store.  Re-sizing the bloom filters rebuilds them from the stored
  /// state hashes.  Not safe concurrently with intern().
  void configure(const StoreOptions& opts);

  struct InternResult {
    StateId id;             // invalid iff dropped at `max_states`
    bool inserted = false;  // true iff `m` was not present before
  };

  /// Find the state structurally equal to `m`, or intern it.  Dedup is
  /// exact: hash-equal candidates are confirmed by fragment-id tuple
  /// equality, which (fragments being interned) is machine structural
  /// equality.  When the state is new and the store already holds
  /// `max_states` states, nothing is stored and an invalid id returns.
  /// `parent`, when valid, names the state `m` was reached from: fresh
  /// warp fragments then delta-encode against the matching warp of the
  /// parent's tuple.  Passing it (or not) never changes ids or results,
  /// only the byte cost of storing them.
  InternResult intern(const sem::Machine& m, std::uint64_t max_states = ~0ull,
                      StateId parent = StateId{});

  /// Rebuild a full machine from its handle — for replay, verdict
  /// construction, counterexample traces.  Memory banks are shared by
  /// refcount with the store (copy-on-write on mutation); warps are
  /// deep copies.  Fragments demoted to the warm or cold tier are
  /// transparently decoded (banks are re-promoted to hot so refcount
  /// sharing keeps working; warps are decoded straight into the
  /// result).  The result compares structurally equal to the machine
  /// that was interned.
  [[nodiscard]] sem::Machine materialize(StateId id) const;

  /// The memoized structural hash the machine had when interned.
  [[nodiscard]] std::uint64_t machine_hash(StateId id) const;

  [[nodiscard]] std::uint64_t size() const {
    return n_states_.load(std::memory_order_relaxed);
  }

  /// Byte/dedup accounting.  `resident_bytes` is what the store
  /// actually holds in RAM (hot objects + warm payloads + per-state
  /// tuple records); `spilled_bytes` is what has been appended to the
  /// on-disk spill segment (mmap-read, so the kernel may cache it, but
  /// it is reclaimable and must not count against a resident-memory
  /// budget); `materialized_bytes` is what the same visited set would
  /// cost as full per-state sem::Machine copies (the pre-StateStore
  /// explorer representation).  Heap overheads are estimated, not
  /// measured.
  struct Stats {
    std::uint64_t states = 0;
    std::uint64_t warp_fragments = 0;
    std::uint64_t bank_fragments = 0;
    std::uint64_t resident_bytes = 0;
    std::uint64_t materialized_bytes = 0;
    std::uint64_t spilled_bytes = 0;
    std::uint64_t hot_evictions = 0;       // hot objects dropped
    std::uint64_t spills = 0;              // warm payloads written to disk
    std::uint64_t rematerializations = 0;  // non-hot fragments decoded
    std::uint64_t delta_fragments = 0;     // payloads stored as deltas
    std::uint64_t bloom_negatives = 0;       // lock-light definite misses
    std::uint64_t bloom_false_positives = 0; // probe found nothing
    /// Spill-tier operations that failed (ENOSPC/EIO on the segment).
    /// Nonzero means the cold tier shut itself off and the store ran
    /// resident-only from that point — a capacity warning, never a
    /// verdict change.
    std::uint64_t degraded_spill = 0;

    [[nodiscard]] double dedup_ratio() const {
      return resident_bytes == 0
                 ? 0.0
                 : static_cast<double>(materialized_bytes) /
                       static_cast<double>(resident_bytes);
    }
    /// Fraction of new-state inserts the bloom pre-check decided
    /// without touching the exact probe.
    [[nodiscard]] double bloom_hit_rate() const {
      const std::uint64_t total = bloom_negatives + bloom_false_positives;
      return total == 0 ? 0.0
                        : static_cast<double>(bloom_negatives) /
                              static_cast<double>(total);
    }
  };
  [[nodiscard]] Stats stats() const;

  /// Run eviction sweeps until a full pass over every fragment shard
  /// makes no progress (everything demoted as far as the configuration
  /// allows).  Test/bench seam — the explorers rely on the automatic
  /// budget-triggered eviction inside intern() instead.
  void evict_all();

  /// Checkpoint codec (sched/checkpoint.h, format v4).  encode
  /// preserves the per-shard insertion order of every fragment pool and
  /// state shard, so decode reproduces the exact same fragment and
  /// state ids — the property that lets a resumed exploration keep
  /// using StateIds from before the crash.  Fragment payloads are
  /// written in their stored form (delta chains round-trip; cold
  /// payloads are read back from the spill segment), so a checkpoint
  /// taken mid-spill is byte-for-byte restorable.  encode requires
  /// external quiescence (no concurrent intern); decode requires
  /// `*this` to be empty and a matching hash mask, lands every payload
  /// in the warm tier, and throws support::BinError on malformed input
  /// or KernelError on misuse.
  void encode(support::BinWriter& w) const;
  void decode(support::BinReader& r);

  /// Per-state wire codec (src/dist frontier exchange).  encode_state
  /// writes one interned state as a self-contained record — memoized
  /// machine hash + the *canonical* (full, never delta) fragment
  /// payloads its tuple references — so a state crosses a process
  /// boundary without materializing a sem::Machine and independently of
  /// the sender's tiering.  decode_state interns the record's fragments
  /// directly into *this* store (same dedup and cap semantics as
  /// intern(): existence before cap, invalid id when full) and returns
  /// the sender's machine hash alongside.  Both sides of an exchange
  /// must explore the same launch: the first decoded record establishes
  /// this store's shape, later records must match it.  decode_state
  /// throws support::BinError on malformed input and never leaves a
  /// partially registered state behind.
  struct WireIntern {
    InternResult result;
    std::uint64_t hash = 0;  // unmasked machine hash, as interned
  };
  void encode_state(StateId id, support::BinWriter& w) const;
  WireIntern decode_state(support::BinReader& r,
                          std::uint64_t max_states = ~0ull);

 private:
  // Fragment/state ids encode (shard, local index): shard in the low
  // bits, per-shard insertion index above.  Stable across the store's
  // lifetime; never reused.
  static constexpr unsigned kFragShardBits = 4;   // 16 fragment shards
  static constexpr unsigned kStateShardBits = 6;  // 64 state shards
  static constexpr std::uint32_t kNoBase = 0xffffffffu;

  /// Append-only spill segment.  Created under the configured
  /// directory and unlinked immediately, so a crash can never leak
  /// disk; reads go through a grow-on-demand read-only mmap.  Its
  /// mutex is a leaf lock: safe to take under any shard lock.
  class SpillFile {
   public:
    ~SpillFile();
    void open(const std::string& dir);
    [[nodiscard]] bool ready() const { return fd_ >= 0; }
    std::uint64_t append(std::string_view bytes);
    [[nodiscard]] std::string read(std::uint64_t off, std::uint32_t len) const;

   private:
    mutable std::mutex mu_;
    int fd_ = -1;
    std::uint64_t size_ = 0;
    /// Original segment name (the file itself is unlinked-while-open);
    /// kept as the fault-injection site label.
    std::string path_;
    mutable char* map_ = nullptr;
    mutable std::uint64_t map_len_ = 0;
  };

  /// One tiered warp fragment.  `hot`, `warm` and (cold_off, cold_len)
  /// are the three tiers; any non-empty subset may be populated.  The
  /// warm/cold payload is the canonical encoding when `base == kNoBase`
  /// and a support::delta op stream against fragment `base`'s canonical
  /// encoding otherwise.
  struct WarpRec {
    std::shared_ptr<const sem::Warp> hot;
    std::shared_ptr<const std::string> warm;
    std::uint64_t hash = 0;       // unmasked structural hash
    std::uint64_t hot_bytes = 0;  // deep-footprint estimate of `hot`
    std::uint64_t cold_off = 0;
    std::uint32_t cold_len = 0;
    std::uint32_t base = kNoBase;  // global warp fragment id
    std::uint8_t depth = 0;        // delta chain length to a full payload
    std::uint8_t ref = 0;          // clock second-chance bit
    std::uint8_t settled = 0;      // fully demoted; sweeps skip it
  };

  /// One tiered bank fragment.  Banks never delta-encode (they are
  /// refcount-shared with live machines and mostly identical anyway).
  struct BankRec {
    mem::Memory::BankRef hot;
    std::shared_ptr<const std::string> warm;
    std::uint64_t hash = 0;
    std::uint64_t hot_bytes = 0;
    std::uint64_t cold_off = 0;
    std::uint32_t cold_len = 0;
    std::uint8_t ref = 0;
    std::uint8_t settled = 0;  // fully demoted; sweeps skip it
  };

  /// Result of one fragment-pool intern.
  struct Frag {
    std::uint32_t id = 0;
    std::uint64_t deep_bytes = 0;  // heap footprint of the fragment
    bool inserted = false;
  };

  template <typename Rec>
  struct FragShard {
    mutable std::mutex mu;
    std::deque<Rec> recs;  // stable addresses; mutated in place
    std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> index;
    std::uint32_t clock_hand = 0;
    /// Records not yet `settled` (fully demoted).  Eviction sweeps
    /// skip shards with live == 0 outright: at a steady budget floor
    /// almost every record is settled, and rescanning them per sweep
    /// made eviction O(records) per intern.  Kept exact under mu:
    /// ++ on insert and on reviving a settled record (touch_locked),
    /// -- when a sweep settles one.
    std::uint32_t live = 0;
  };
  using WarpShard = FragShard<WarpRec>;
  using BankShard = FragShard<BankRec>;

  /// Visited-state shard: flat append-only arenas (unmasked hash +
  /// fragment-id tuple per state, indexed by local id), an open-
  /// addressed slot table over them (value = local + 1, 0 = empty), and
  /// the bloom filter in front of it all.  ~30 bytes of bookkeeping per
  /// state instead of the ~100+ a deque of records with an
  /// unordered_map index costs.
  struct StateShard {
    mutable std::mutex mu;
    std::vector<std::uint64_t> hashes;  // unmasked, [local]
    std::vector<std::uint32_t> tuples;  // flat, stride = shape_.tuple_len
    std::vector<std::uint32_t> slots;   // open addressing, power of two
    // Allocated lazily (and pre-seeded from `hashes`) on first insert;
    // accessed only under `mu`, so two word reads decide "definitely
    // new" before any probe.
    std::unique_ptr<std::uint64_t[]> bloom;
  };

  /// Grid/memory shape shared by every state of one exploration
  /// (warp counts per block never change across transitions).
  struct Shape {
    std::vector<std::uint32_t> warps_per_block;
    std::uint32_t shared_banks = 0;
    std::uint64_t shared_per_block = 0;
    std::uint32_t tuple_len = 0;
  };

  void ensure_shape(const sem::Machine& m);

  // --- fragment pools -------------------------------------------------
  Frag intern_warp(const sem::Warp& w, std::uint32_t base_id);
  Frag intern_bank(const mem::Memory::BankRef& b);
  /// Canonical (full) encoding of a warp fragment, resolved through
  /// whatever tier/delta chain it is in.  Takes one shard lock at a
  /// time; `depth_out`, when non-null, receives the fragment's delta
  /// depth.
  [[nodiscard]] std::string warp_canonical_bytes(std::uint32_t id,
                                                 std::uint8_t* depth_out =
                                                     nullptr) const;
  /// Decoded warp by value: a copy of the hot object, or a decode of
  /// the resolved canonical bytes when the fragment is not hot.
  [[nodiscard]] sem::Warp warp_value(std::uint32_t id) const;
  [[nodiscard]] std::string bank_canonical_bytes_locked(
      const BankRec& rec) const;
  [[nodiscard]] mem::Memory::BankRef bank_ref(std::uint32_t id) const;

  // --- eviction -------------------------------------------------------
  /// One clock step on one record.  Returns true if it changed tiers.
  /// Mark a record referenced, reviving it for the sweep if it had
  /// settled.  Caller holds s.mu.
  template <typename Shard, typename Rec>
  static void touch_locked(Shard& s, Rec& rec) {
    rec.ref = 1;
    if (rec.settled) {
      rec.settled = 0;
      ++s.live;
    }
  }

  /// One clock step of the sweep on one record: clear its second-chance
  /// bit or demote it one tier.  False once it is settled.
  template <typename Rec>
  bool step_rec(FragShard<Rec>& s, Rec& rec);
  /// True while the cold tier is usable.  A failed spill operation
  /// (ENOSPC/EIO) trips `spill_failed_` via degrade_spill() and the
  /// store runs resident-only from then on: already-spilled payloads
  /// stay readable, nothing new is appended, the verdict is unaffected.
  [[nodiscard]] bool spill_usable() const {
    return spill_.ready() && !spill_failed_.load(std::memory_order_relaxed);
  }
  void degrade_spill(const char* why);
  /// Budget check + clock sweeps; called after every insert.
  void maybe_evict();
  /// One bounded sweep over all fragment shards; returns demotions.
  std::uint64_t evict_pass(std::uint64_t stop_below);

  // --- visited-state table --------------------------------------------
  /// Shared tail of intern()/decode_state(): look the tuple up in its
  /// state shard (bloom pre-check first), register it if new and under
  /// cap, book the stats.
  InternResult register_tuple(std::uint64_t h,
                              std::vector<std::uint32_t>&& tuple,
                              std::uint64_t max_states,
                              std::uint64_t full_bytes);
  /// Copy of state `id`'s tuple (empty if `id` is invalid/unknown).
  [[nodiscard]] std::vector<std::uint32_t> tuple_of(StateId id) const;
  /// Exact probe of one shard; caller holds `s.mu`.  Returns local + 1
  /// or 0.
  [[nodiscard]] std::uint32_t probe_locked(const StateShard& s,
                                           std::uint64_t h,
                                           const std::vector<std::uint32_t>&
                                               tuple) const;
  void slot_insert_locked(StateShard& s, std::uint32_t local);
  [[nodiscard]] bool bloom_maybe_locked(const StateShard& s,
                                        std::uint64_t masked) const;
  void bloom_add_locked(StateShard& s, std::uint64_t masked);

  const std::uint64_t hash_mask_ = ~0ull;

  std::once_flag shape_once_;
  Shape shape_;

  // Mutable: const accessors still touch clock ref bits, re-promote
  // bank fragments, and book rematerialization stats.
  mutable WarpShard warp_shards_[1u << kFragShardBits];
  mutable BankShard bank_shards_[1u << kFragShardBits];
  StateShard state_shards_[1u << kStateShardBits];

  SpillFile spill_;
  std::string spill_dir_;
  std::mutex evict_mu_;  // single evictor; never held across shard locks
  std::atomic<std::uint64_t> resident_budget_{0};
  std::atomic<std::uint64_t> bloom_bits_{1u << 17};
  std::atomic<std::uint32_t> delta_max_depth_{8};

  std::atomic<std::uint64_t> n_states_{0};
  std::atomic<std::uint64_t> n_warp_frags_{0};
  std::atomic<std::uint64_t> n_bank_frags_{0};
  mutable std::atomic<std::uint64_t> resident_bytes_{0};
  std::atomic<std::uint64_t> materialized_bytes_{0};
  std::atomic<std::uint64_t> spilled_bytes_{0};
  std::atomic<std::uint64_t> hot_evictions_{0};
  std::atomic<std::uint64_t> spills_{0};
  mutable std::atomic<std::uint64_t> remats_{0};
  std::atomic<std::uint64_t> delta_frags_{0};
  std::atomic<std::uint64_t> bloom_neg_{0};
  std::atomic<std::uint64_t> bloom_fp_{0};
  std::atomic<bool> spill_failed_{false};
  std::atomic<std::uint64_t> degraded_spill_{0};
};

/// Every StateStore::Stats counter, in declaration order: code that sums
/// or ships all of them walks this list.  dist::GraphPartMsg sends them
/// in this order, so reordering it changes the wire format.
inline constexpr std::uint64_t StateStore::Stats::*kStoreCounters[] = {
    &StateStore::Stats::states,
    &StateStore::Stats::warp_fragments,
    &StateStore::Stats::bank_fragments,
    &StateStore::Stats::resident_bytes,
    &StateStore::Stats::materialized_bytes,
    &StateStore::Stats::spilled_bytes,
    &StateStore::Stats::hot_evictions,
    &StateStore::Stats::spills,
    &StateStore::Stats::rematerializations,
    &StateStore::Stats::delta_fragments,
    &StateStore::Stats::bloom_negatives,
    &StateStore::Stats::bloom_false_positives,
    &StateStore::Stats::degraded_spill,
};

}  // namespace cac::sched
