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
// Warps are copy-on-write handles too (sem::WarpRef), and the store
// shares them with the machines it interns and materializes: intern()
// rewrites the machine's warp handles to the pool's objects, and
// materialize() hands them out.  A child stepped from a materialized
// parent then shares every warp the step left alone, and interning the
// child with its parent recognises those warps by pointer — no hash
// probe, no value compare.  Banks take the same parent pointer path.
//
// The state table is keyed by a hash of the fragment-id tuple, which is
// exact because fragments are interned.  That lets the store skip the
// machine altogether on a repeated step: an ExecWarp step (Fig. 3
// execb) reads one warp and, for ld/st/atom, the one bank its space
// selects, and writes only those (sem::step_space).  For the fixed
// program, KernelConfig and StepOptions of one exploration its result
// is a function of those fragments, so the *successor cache* maps the
// ids the step read to the ids it wrote.  A transition whose key is
// cached interns the parent's tuple with those ids put in
// (intern_successor), with no step, no machine and no hash of a warp;
// a new state's materialized bytes are summed from its fragments'
// records.  The caller reads the new state back as ids (tuple(),
// warp()), so a hit materializes nothing.  Lift-bar and faulting steps
// are never recorded.  The cache is never checkpointed (a resumed run
// starts with it empty), its bytes count in `resident_bytes`, and
// eviction drops it when demoting fragments cannot meet the budget.
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
// A clock (second-chance) sweep over each fragment pool demotes
// fragments one tier at a time whenever `resident_bytes` exceeds the
// configured budget; any access transparently rematerializes from
// whatever tier the fragment is in.  Dedup against a non-hot fragment
// compares canonical encodings instead of objects — sem::Warp::encode
// and Bank::encode are deterministic and injective, so byte equality of
// encodings is structural equality.  Warp fragments additionally
// delta-encode against the matching warp of their parent state (one
// semantic step usually touches a register or two), which is what makes
// reduce-like kernels — whose warp trees differ by a few registers per
// step — cheap to keep resident.
//
// Ownership: a store has a single owner and is not thread-safe.  Every
// caller interns from one thread — the DFS of a local run, or of a
// serve job on its worker thread — and no store leaves the thread that
// built it, so the store takes no lock and keeps plain counters.  The
// warp handles it shares never leave that thread either: pool warps
// are hashed before they are shared, and their memoized hash is not
// synchronized.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <string>
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

/// Tiering knobs.  The last two are *transient* resource policy — they
/// shape where bytes live, never which states exist or what verdict an
/// exploration reaches — so neither enters the structural checkpoint
/// option fingerprint, and a resumed store may be configured with
/// different values than the run that wrote the checkpoint.
struct StoreOptions {
  /// Test seam: ANDed onto every fragment and state hash before
  /// indexing.  A mask of 0 files every entry under one hash, so dedup
  /// decisions rest on structural equality alone — the
  /// collision-robustness property the tests pin.  Fixed at
  /// construction; configure() ignores it.
  std::uint64_t hash_mask = ~0ull;
  /// Directory for the spill segment file.  Empty disables the cold
  /// tier: eviction then stops at the warm (encoded-in-RAM) tier.
  std::string spill_dir;
  /// Evict until `resident_bytes` is back under this.  0 disables
  /// eviction entirely (everything stays hot — the pre-tiering
  /// behaviour, and the default).
  std::uint64_t resident_budget_bytes = 0;
};

class StateStore {
 public:
  StateStore() = default;
  explicit StateStore(const StoreOptions& opts) : hash_mask_(opts.hash_mask) {
    configure(opts);
  }
  ~StateStore();

  StateStore(const StateStore&) = delete;
  StateStore& operator=(const StateStore&) = delete;

  /// Apply tiering knobs to a live store (`hash_mask` excluded — it is
  /// fixed at construction).  The engines call this right after
  /// checkpoint decode, which always produces a default-configured
  /// store.
  void configure(const StoreOptions& opts);

  struct InternResult {
    StateId id;             // invalid iff dropped at `max_states`
    bool inserted = false;  // true iff `m` was not present before
  };

  /// One ExecWarp step, named by what it reads: warp `warp` of block
  /// `block` and, when `space` is set (the ld/st/atom space,
  /// sem::step_space), the bank that space selects — for Shared, block
  /// `block`'s own.  The successor cache's key is those fragments' ids.
  struct Step {
    std::uint32_t block = 0;
    std::uint32_t warp = 0;
    std::optional<mem::Space> space;
  };

  /// Find the state structurally equal to `m`, or intern it.  Dedup is
  /// exact: hash-equal candidates are confirmed by fragment-id tuple
  /// equality, which (fragments being interned) is machine structural
  /// equality.  When the state is new and the store already holds
  /// `max_states` states, nothing is stored and an invalid id returns.
  /// `parent`, when valid, names the state `m` was reached from: a warp
  /// or bank whose handle is the parent fragment's hot object takes the
  /// parent's fragment id by pointer, and fresh warp fragments
  /// delta-encode against the matching warp of the parent's tuple.
  /// Passing it (or not) never changes ids or results, only the time
  /// and byte cost of storing them.  Ids are dense: the n-th distinct
  /// state interned gets id n - 1.
  ///
  /// `m` keeps its value, but its warp handles are rewritten to the
  /// pool's objects wherever the matching fragment is hot (a new
  /// fragment is pooled as an exact-size copy first).  The first
  /// machine fixes the store's shape — blocks, warps per block, shared
  /// banks and their size; a machine of another shape throws
  /// KernelError before any pool is touched.
  ///
  /// `step`, with `parent`, names the ExecWarp step that took the
  /// parent state to `m`: the ids `m` holds at the step's positions are
  /// recorded in the successor cache as what stepping the parent's
  /// fragments there writes.  The caller vouches that the step did not
  /// fault and ran under the program, KernelConfig and StepOptions of
  /// every other recorded step.  A step that changed any other position
  /// throws KernelError.
  InternResult intern(sem::Machine& m, std::uint64_t max_states = ~0ull,
                      StateId parent = StateId{},
                      const Step* step = nullptr);

  /// The successor cache's hit path.  When `step` has been recorded
  /// from the fragments `parent` holds at its positions, intern
  /// `parent`'s tuple with the recorded fragments put in — the result
  /// intern() would give the stepped machine, with no machine, no step
  /// and no hash of one; a new state's materialized bytes are summed
  /// from its fragments' records.  Otherwise return nullopt, having
  /// changed nothing but the miss count.
  std::optional<InternResult> intern_successor(StateId parent,
                                               const Step& step,
                                               std::uint64_t max_states);

  /// Rebuild a full machine from its handle — for a step the successor
  /// cache cannot answer, replay, verdict construction, counterexample
  /// traces.  Warps and memory banks are the store's own objects,
  /// shared by refcount (copy-on-write on mutation).  Fragments demoted
  /// to the warm or cold tier are transparently decoded (banks are
  /// re-promoted to hot so refcount sharing keeps working; a warp is
  /// decoded into a fresh handle that only the result holds).  The
  /// result compares structurally equal to the machine that was
  /// interned.  Counted in Stats::materializations.
  [[nodiscard]] sem::Machine materialize(StateId id) const;

  /// State `id`'s fragment-id tuple: its warps' fragments block-major
  /// (warps_per_block()), then one Shared bank per block, Global, Const
  /// and Param.  It is read in place, so the next intern may move it.
  /// Throws KernelError for an unknown id.
  [[nodiscard]] std::span<const std::uint32_t> tuple(StateId id) const;

  /// Warp fragment `id` as materialize() hands it out: the pool's
  /// object when hot, else a fresh decode.  Throws KernelError for an
  /// unknown id.
  [[nodiscard]] sem::WarpRef warp(std::uint32_t id) const;

  /// Warps per block of every state's machine; empty until the first
  /// intern fixes the shape.
  [[nodiscard]] const std::vector<std::uint32_t>& warps_per_block() const {
    return shape_.warps_per_block;
  }

  /// The interned machine's Machine::hash(), computed through
  /// materialize() (the state table keys on the id tuple instead).
  [[nodiscard]] std::uint64_t machine_hash(StateId id) const;

  [[nodiscard]] std::uint64_t size() const { return stats_.states; }

  /// Byte/dedup accounting.  `resident_bytes` is what the store
  /// actually holds in RAM (hot objects + warm payloads + per-state
  /// tuple records + successor-cache entries); `spilled_bytes` is what
  /// has been appended to the on-disk spill segment (mmap-read, so the
  /// kernel may cache it, but it is reclaimable and must not count
  /// against a resident-memory budget); `materialized_bytes` is what
  /// the same visited set would cost as full per-state sem::Machine
  /// copies (the pre-StateStore explorer representation).  Heap
  /// overheads are estimated, not measured; a fragment decoded from a
  /// checkpoint counts 0 bytes toward it until it is decoded again.
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
    /// Spill-tier operations that failed (ENOSPC/EIO on the segment).
    /// Nonzero means the cold tier shut itself off and the store ran
    /// resident-only from that point — a capacity warning, never a
    /// verdict change.
    std::uint64_t degraded_spill = 0;
    /// intern_successor calls that found their step cached, and those
    /// that did not (the caller then steps and interns the machine).
    std::uint64_t successor_hits = 0;
    std::uint64_t successor_misses = 0;
    /// materialize() calls.
    std::uint64_t materializations = 0;

    [[nodiscard]] double dedup_ratio() const {
      return resident_bytes == 0
                 ? 0.0
                 : static_cast<double>(materialized_bytes) /
                       static_cast<double>(resident_bytes);
    }
    /// Always 0: nothing computes it any more.  It remains only because
    /// the cacbench/ harness still reads it, and goes when that read
    /// does.
    [[nodiscard]] double bloom_hit_rate() const { return 0.0; }

    friend bool operator==(const Stats&, const Stats&) = default;
  };
  [[nodiscard]] Stats stats() const { return stats_; }

  /// Run eviction sweeps until a full pass over both fragment pools
  /// makes no progress (everything demoted as far as the configuration
  /// allows).  Test/bench seam — the explorers rely on the automatic
  /// budget-triggered eviction inside intern() instead.
  void evict_all();

  /// Checkpoint codec (sched/checkpoint.h, format v8).  encode
  /// preserves the insertion order of both fragment pools and of the
  /// state table, so decode reproduces the exact same fragment and
  /// state ids — the property that lets a resumed exploration keep
  /// using StateIds from before the crash.  States are written as bare
  /// id tuples (decode rehashes them), and the successor cache is not
  /// written: a decoded store starts with it empty.  Fragment payloads
  /// are written in their stored form (delta chains round-trip; cold
  /// payloads are read back from the spill segment), so a checkpoint
  /// taken mid-spill is byte-for-byte restorable.  decode requires
  /// `*this` to be empty and a matching hash mask, lands every payload
  /// in the warm tier, and throws support::BinError on malformed input
  /// or KernelError on misuse.
  void encode(support::BinWriter& w) const;
  void decode(support::BinReader& r);

 private:
  static constexpr std::uint32_t kNoBase = 0xffffffffu;

  /// Append-only spill segment.  Created under the configured
  /// directory and unlinked immediately, so a crash can never leak
  /// disk; reads go through a grow-on-demand read-only mmap.
  class SpillFile {
   public:
    SpillFile() = default;
    SpillFile(const SpillFile&) = delete;
    SpillFile& operator=(const SpillFile&) = delete;
    ~SpillFile();
    void open(const std::string& dir);
    [[nodiscard]] bool ready() const { return fd_ >= 0; }
    std::uint64_t append(std::string_view bytes);
    [[nodiscard]] std::string read(std::uint64_t off, std::uint32_t len) const;

   private:
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
    sem::WarpRef hot;
    std::shared_ptr<const std::string> warm;
    std::uint64_t hash = 0;  // unmasked structural hash
    /// Deep-footprint estimate of `hot`, kept after demotion.  A record
    /// decoded from a checkpoint has 0 until warp() first decodes it.
    std::uint64_t hot_bytes = 0;
    std::uint64_t cold_off = 0;
    std::uint32_t cold_len = 0;
    std::uint32_t base = kNoBase;  // warp fragment id
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
    /// As WarpRec's; a decoded record has 0 until bank_ref re-promotes it.
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

  /// Open-addressed index over dense ids (slot value = id + 1, 0 =
  /// empty), keyed by masked hash and kept under a 0.7 load factor.
  /// The fragment pools and the state table share it.
  struct Slots {
    std::vector<std::uint32_t> v;

    /// The first id filed under `masked` that `match` accepts, + 1;
    /// 0 when none does.
    template <typename Match>
    std::uint32_t find(std::uint64_t masked, Match&& match) const;
    /// File `id`, the next dense id; `masked_of(i)` is id i's masked
    /// hash, needed for every filed id when the table grows.
    template <typename MaskedOf>
    void add(std::uint32_t id, MaskedOf&& masked_of);
    void place(std::uint32_t id, std::uint64_t masked);
  };

  /// A fragment pool: records indexed by dense id, the hash index over
  /// them, and the clock sweep's state.
  template <typename Rec>
  struct Pool {
    std::deque<Rec> recs;  // [id]; stable addresses, mutated in place
    Slots index;
    std::uint32_t clock_hand = 0;
    /// Records not yet `settled` (fully demoted).  Eviction sweeps
    /// skip a pool with live == 0 outright: at a steady budget floor
    /// almost every record is settled, and rescanning them per sweep
    /// made eviction O(records) per intern.  ++ on insert and on
    /// reviving a settled record (touch), -- when a sweep settles one.
    std::uint32_t live = 0;
  };

  /// Grid/memory shape shared by every state of one exploration
  /// (warp counts per block never change across transitions).
  /// `tuple_len` is 0 until the first state fixes the shape.
  struct Shape {
    std::vector<std::uint32_t> warps_per_block;
    std::uint32_t shared_banks = 0;
    std::uint64_t shared_per_block = 0;
    std::uint32_t tuple_len = 0;
    /// Tuple position of each block's warp 0 (derived).
    std::vector<std::uint32_t> first_warp;

    /// Derive first_warp and tuple_len from the fields above.
    void index();
    /// Tuple positions holding warps; the banks follow them.
    [[nodiscard]] std::uint32_t warp_slots() const {
      return tuple_len - shared_banks - 3;
    }
  };

  /// Fix the shape from the first machine; throw KernelError when a
  /// later one differs from it.
  void ensure_shape(const sem::Machine& m);

  /// The tuple positions a step reads and writes: its warp's, and its
  /// bank's (kNoBase when it touches no memory).  nullopt when the step
  /// lies outside the store's shape, which leaves it uncached.
  struct Positions {
    std::uint32_t warp = 0;
    std::uint32_t bank = kNoBase;
  };
  [[nodiscard]] std::optional<Positions> positions(const Step& s) const;

  // --- fragment pools -------------------------------------------------
  /// Intern the warp in `w`, and point `w` at the pool's object when
  /// the fragment is hot.  `parent_id` is the parent tuple's fragment
  /// at this position, or kNoBase.
  Frag intern_warp(sem::WarpRef& w, std::uint32_t parent_id);
  Frag intern_bank(const mem::Memory::BankRef& b, std::uint32_t parent_id);
  /// Canonical (full) encoding of a warp fragment, resolved through
  /// whatever tier/delta chain it is in.  `depth_out`, when non-null,
  /// receives the fragment's delta depth.
  [[nodiscard]] std::string warp_canonical_bytes(std::uint32_t id,
                                                 std::uint8_t* depth_out =
                                                     nullptr) const;
  [[nodiscard]] std::string bank_canonical_bytes(const BankRec& rec) const;
  [[nodiscard]] mem::Memory::BankRef bank_ref(std::uint32_t id) const;

  // --- eviction -------------------------------------------------------
  /// Mark a record referenced, reviving it for the sweep if it had
  /// settled.
  template <typename Rec>
  static void touch(Pool<Rec>& p, Rec& rec) {
    rec.ref = 1;
    if (rec.settled) {
      rec.settled = 0;
      ++p.live;
    }
  }

  /// One clock step of the sweep on one record: clear its second-chance
  /// bit or demote it one tier.  False once it is settled.
  template <typename Rec>
  bool step_rec(Pool<Rec>& p, Rec& rec);
  /// True while the cold tier is usable.  A failed spill operation
  /// (ENOSPC/EIO) trips `spill_failed_` via degrade_spill() and the
  /// store runs resident-only from then on: already-spilled payloads
  /// stay readable, nothing new is appended, the verdict is unaffected.
  [[nodiscard]] bool spill_usable() const {
    return spill_.ready() && !spill_failed_;
  }
  void degrade_spill(const char* why);
  /// Budget check + clock sweeps; called after every insert.  When a
  /// sweep demotes nothing and the store is still over budget, the
  /// successor cache goes too.
  void maybe_evict();
  /// One bounded sweep over both fragment pools; returns demotions.
  std::uint64_t evict_pass(std::uint64_t stop_below);

  // --- visited-state table --------------------------------------------
  /// Look `tuple_` up in the state table and register it if new and
  /// under cap.  The caller books the new state's materialized bytes.
  InternResult register_tuple(std::uint64_t max_states);
  /// State `id`'s fragment-id tuple, read in place from the arena.
  /// Throws KernelError naming `who` if `id` is invalid or unknown.
  [[nodiscard]] const std::uint32_t* tuple_at(StateId id,
                                              const char* who) const;

  // --- successor cache ------------------------------------------------
  /// The ids `tuple` holds at `at`: warp in the low, bank (or kNoBase)
  /// in the high 32 bits.  Keys and values share this packing.
  static std::uint64_t pack(const std::uint32_t* tuple, Positions at);
  /// The entry recorded under `key`, + 1; 0 when there is none.
  [[nodiscard]] std::uint32_t find_successor(std::uint64_t key) const;
  /// intern()'s recording half: `tuple_` is the stepped child of
  /// `parent_tuple`.
  void record_successor(const std::uint32_t* parent_tuple, const Step& s);
  void drop_successors();

  const std::uint64_t hash_mask_ = ~0ull;
  Shape shape_;

  // Mutable: const accessors still touch clock ref bits, re-promote
  // bank fragments, and book rematerialization stats.
  mutable Pool<WarpRec> warps_;
  mutable Pool<BankRec> banks_;

  // The visited-state table: flat arenas indexed by state id (unmasked
  // hash of the tuple, fragment-id tuple) and the slot index over them
  // — about 30 bytes of bookkeeping per state.
  std::vector<std::uint64_t> hashes_;
  std::vector<std::uint32_t> tuples_;  // stride = shape_.tuple_len
  Slots slots_;
  /// The tuple being interned.  Fragment interning never appends to
  /// `tuples_`, so the parent's tuple is read in place until
  /// register_tuple copies this one in.
  std::vector<std::uint32_t> tuple_;

  // The successor cache: entry i maps succ_keys_[i] (the ids a step
  // read) to succ_vals_[i] (the ids it wrote), both pack()ed, indexed
  // by key.
  std::vector<std::uint64_t> succ_keys_;
  std::vector<std::uint64_t> succ_vals_;
  Slots succ_index_;

  SpillFile spill_;
  std::uint64_t resident_budget_ = 0;
  bool spill_failed_ = false;
  mutable Stats stats_;
};

}  // namespace cac::sched
