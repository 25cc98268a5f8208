#include "sched/state_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <utility>

#include "support/binio.h"
#include "support/delta.h"
#include "support/diag.h"
#include "support/fault.h"

namespace cac::sched {

namespace {

// Longest warp-fragment delta chain (fragment -> base -> ... -> full
// encoding): every kDeltaMaxDepth-th fragment of a chain is a full key
// frame, which bounds the work of resolving any fragment.
constexpr std::uint32_t kDeltaMaxDepth = 8;

// A delta payload must undercut the full encoding by this margin to be
// worth the chain hop it costs on every rematerialization.
constexpr std::size_t kDeltaSlack = 16;

std::string encode_frag(const sem::Warp& w) {
  support::BinWriter bw;
  w.encode(bw);
  return bw.take();
}

std::string encode_frag(const mem::Memory::Bank& b) {
  support::BinWriter bw;
  b.encode(bw);
  return bw.take();
}

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Bookkeeping bytes of one state-table entry: its tuple, hash and slot.
std::uint64_t state_record_bytes(std::uint32_t tuple_len) {
  return tuple_len * sizeof(std::uint32_t) + sizeof(std::uint64_t) +
         sizeof(std::uint32_t);
}

/// Bytes of one successor-cache entry: its key, value and slot.
constexpr std::uint64_t kSuccessorRecordBytes =
    2 * sizeof(std::uint64_t) + sizeof(std::uint32_t);

/// The state table's key: exact, because fragments are interned.
std::uint64_t tuple_hash(const std::uint32_t* tuple, std::uint32_t len) {
  return Hasher().mix_words(tuple, len * sizeof(std::uint32_t)).value();
}

}  // namespace

// --- spill segment ----------------------------------------------------

StateStore::SpillFile::~SpillFile() {
  if (map_ != nullptr) ::munmap(map_, map_len_);
  if (fd_ >= 0) ::close(fd_);
}

void StateStore::SpillFile::open(const std::string& dir) {
  if (fd_ >= 0) return;
  static std::atomic<unsigned> instance{0};
  for (int attempt = 0; attempt < 8; ++attempt) {
    const std::string path = dir + "/cac-spill-" +
                             std::to_string(::getpid()) + "-" +
                             std::to_string(instance.fetch_add(1)) + ".seg";
    if (int err = support::fault_check("open", path)) {
      throw KernelError("cannot create spill segment in '" + dir +
                        "': " + std::strerror(err));
    }
    const int fd =
        ::open(path.c_str(), O_RDWR | O_CREAT | O_EXCL | O_CLOEXEC, 0600);
    if (fd < 0) {
      if (errno == EEXIST) continue;  // stale leftover name; pick another
      throw KernelError("cannot create spill segment in '" + dir + "'");
    }
    // Unlinked while open: the fd is the only reference, so a crash (or
    // SIGKILL) can never leak disk.
    ::unlink(path.c_str());
    fd_ = fd;
    path_ = path;
    return;
  }
  throw KernelError("cannot create spill segment in '" + dir + "'");
}

std::uint64_t StateStore::SpillFile::append(std::string_view bytes) {
  if (fd_ < 0) throw KernelError("spill segment not open");
  if (int err = support::fault_check("write", path_)) {
    throw KernelError(std::string("spill segment write failed: ") +
                      std::strerror(err));
  }
  const std::uint64_t off = size_;
  const char* p = bytes.data();
  std::size_t left = bytes.size();
  std::uint64_t at = size_;
  while (left > 0) {
    const ssize_t n = ::pwrite(fd_, p, left, static_cast<off_t>(at));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw KernelError("spill segment write failed");
    }
    p += n;
    left -= static_cast<std::size_t>(n);
    at += static_cast<std::uint64_t>(n);
  }
  size_ += bytes.size();
  return off;
}

std::string StateStore::SpillFile::read(std::uint64_t off,
                                        std::uint32_t len) const {
  if (fd_ < 0) throw KernelError("spill segment not open");
  if (off + len > size_) throw KernelError("spill segment read out of range");
  if (len == 0) return {};
  if (map_len_ < off + len) {
    // Remap to cover everything written so far (the file only grows).
    if (map_ != nullptr) {
      ::munmap(map_, map_len_);
      map_ = nullptr;
      map_len_ = 0;
    }
    void* m = ::mmap(nullptr, size_, PROT_READ, MAP_SHARED, fd_, 0);
    if (m == MAP_FAILED) throw KernelError("spill segment mmap failed");
    map_ = static_cast<char*>(m);
    map_len_ = size_;
  }
  return std::string(map_ + off, len);
}

// --- slot index -------------------------------------------------------

template <typename Match>
std::uint32_t StateStore::Slots::find(std::uint64_t masked,
                                      Match&& match) const {
  if (v.empty()) return 0;
  const std::uint64_t mask = v.size() - 1;
  for (std::uint64_t i = splitmix(masked) & mask; v[i] != 0;
       i = (i + 1) & mask) {
    if (match(v[i] - 1)) return v[i];
  }
  return 0;
}

template <typename MaskedOf>
void StateStore::Slots::add(std::uint32_t id, MaskedOf&& masked_of) {
  const std::uint64_t n = std::uint64_t{id} + 1;
  if (n * 10 > v.size() * 7) {
    std::size_t cap = v.empty() ? 64 : v.size() * 2;
    while (cap * 7 < n * 10) cap *= 2;
    v.assign(cap, 0);
    for (std::uint32_t i = 0; i < id; ++i) place(i, masked_of(i));
  }
  place(id, masked_of(id));
}

void StateStore::Slots::place(std::uint32_t id, std::uint64_t masked) {
  const std::uint64_t mask = v.size() - 1;
  std::uint64_t i = splitmix(masked) & mask;
  while (v[i] != 0) i = (i + 1) & mask;
  v[i] = id + 1;
}

// --- construction / configuration ------------------------------------

StateStore::~StateStore() = default;

void StateStore::configure(const StoreOptions& opts) {
  resident_budget_ = opts.resident_budget_bytes;
  if (opts.spill_dir.empty()) return;
  const bool was_ready = spill_.ready();
  try {
    spill_.open(opts.spill_dir);
  } catch (const KernelError& e) {
    // No cold tier, but no reason to abort the run either: eviction
    // simply stops at the warm tier (same as spill_dir unset).
    degrade_spill(e.what());
    return;
  }
  if (!was_ready) {
    // Records that settled without a cold tier can now demote one
    // level further — revive them all for the sweep.
    const auto revive = [](auto& pool) {
      for (auto& rec : pool.recs) rec.settled = 0;
      pool.live = static_cast<std::uint32_t>(pool.recs.size());
    };
    revive(warps_);
    revive(banks_);
  }
}

// --- shape ------------------------------------------------------------

void StateStore::Shape::index() {
  std::uint32_t warps = 0;
  first_warp.clear();
  for (const std::uint32_t n : warps_per_block) {
    first_warp.push_back(warps);
    warps += n;
  }
  tuple_len = warps + shared_banks + 3;
}

void StateStore::ensure_shape(const sem::Machine& m) {
  if (shape_.tuple_len != 0) {
    const std::vector<sem::Block>& blocks = m.grid.blocks;
    bool same = blocks.size() == shape_.warps_per_block.size() &&
                m.memory.shared_bank_refs().size() == shape_.shared_banks &&
                m.memory.shared_size() == shape_.shared_per_block;
    for (std::size_t b = 0; same && b < blocks.size(); ++b) {
      same = blocks[b].warps.size() == shape_.warps_per_block[b];
    }
    if (!same) throw KernelError("machine shape does not match state store");
    return;
  }
  shape_.warps_per_block.reserve(m.grid.blocks.size());
  for (const sem::Block& b : m.grid.blocks) {
    shape_.warps_per_block.push_back(
        static_cast<std::uint32_t>(b.warps.size()));
  }
  shape_.shared_banks =
      static_cast<std::uint32_t>(m.memory.shared_bank_refs().size());
  shape_.shared_per_block = m.memory.shared_size();
  shape_.index();
}

std::optional<StateStore::Positions> StateStore::positions(
    const Step& s) const {
  if (s.block >= shape_.warps_per_block.size() ||
      s.warp >= shape_.warps_per_block[s.block]) {
    return std::nullopt;
  }
  Positions at;
  at.warp = shape_.first_warp[s.block] + s.warp;
  if (!s.space) return at;
  // Banks follow the warps: one Shared bank per block, then Global,
  // Const and Param.
  const std::uint32_t shared = shape_.warp_slots();
  const std::uint32_t global = shared + shape_.shared_banks;
  switch (*s.space) {
    case mem::Space::Shared:
      if (s.block >= shape_.shared_banks) return std::nullopt;
      at.bank = shared + s.block;
      break;
    case mem::Space::Global: at.bank = global; break;
    case mem::Space::Const: at.bank = global + 1; break;
    case mem::Space::Param: at.bank = global + 2; break;
  }
  return at;
}

// --- warp fragment pool -----------------------------------------------

std::string StateStore::warp_canonical_bytes(std::uint32_t id,
                                             std::uint8_t* depth_out) const {
  if (id >= warps_.recs.size()) throw KernelError("unknown warp fragment");
  if (depth_out != nullptr) *depth_out = warps_.recs[id].depth;
  // Delta payloads, target-first along the chain.
  std::vector<std::shared_ptr<const std::string>> deltas;
  std::string bytes;
  for (std::uint32_t cur = id, hops = 0;; cur = warps_.recs[cur].base) {
    // Insert never chains deeper than kDeltaMaxDepth and decode rejects
    // deeper chains, so this only trips on a broken invariant.
    if (hops++ > kDeltaMaxDepth || cur >= warps_.recs.size()) {
      throw KernelError("broken warp fragment delta chain");
    }
    WarpRec& rec = warps_.recs[cur];
    touch(warps_, rec);
    if (rec.hot) {
      bytes = encode_frag(*rec.hot);  // canonical full form; chain ends here
      break;
    }
    std::shared_ptr<const std::string> payload = rec.warm;
    if (!payload) {
      if (rec.cold_len == 0) throw KernelError("warp fragment has no payload");
      payload = std::make_shared<const std::string>(
          spill_.read(rec.cold_off, rec.cold_len));
    }
    if (rec.base == kNoBase) {
      bytes = *payload;
      break;
    }
    deltas.push_back(std::move(payload));
  }
  for (auto it = deltas.rbegin(); it != deltas.rend(); ++it) {
    bytes = support::delta::apply(bytes, **it);
  }
  return bytes;
}

sem::WarpRef StateStore::warp(std::uint32_t id) const {
  if (id >= warps_.recs.size()) throw KernelError("unknown warp fragment");
  WarpRec& rec = warps_.recs[id];
  touch(warps_, rec);
  if (rec.hot) return rec.hot;
  const std::string bytes = warp_canonical_bytes(id);
  ++stats_.rematerializations;
  support::BinReader r(bytes);
  sem::WarpRef w = std::make_shared<sem::Warp>(sem::Warp::decode(r));
  if (rec.hot_bytes == 0) rec.hot_bytes = w->deep_bytes();
  return w;
}

StateStore::Frag StateStore::intern_warp(sem::WarpRef& w,
                                         std::uint32_t parent_id) {
  // A warp the transition left alone is still the parent's pool object.
  if (parent_id != kNoBase) {
    WarpRec& rec = warps_.recs[parent_id];
    if (rec.hot == w) {
      touch(warps_, rec);
      return {parent_id, rec.hot_bytes, false};
    }
  }
  const std::uint64_t h = w->hash();
  std::string mine;  // canonical bytes of w, encoded at most once
  const std::uint32_t found =
      warps_.index.find(h & hash_mask_, [&](std::uint32_t id) {
        const WarpRec& rec = warps_.recs[id];
        if (rec.hash != h) return false;
        if (rec.hot) return rec.hot == w || *rec.hot == *w;
        // Warp::encode is deterministic and injective, so byte equality
        // of canonical encodings is structural equality — dedup against
        // a demoted fragment without rematerializing it.
        if (mine.empty()) mine = encode_frag(*w);
        return warp_canonical_bytes(id) == mine;
      });
  if (found != 0) {
    WarpRec& rec = warps_.recs[found - 1];
    touch(warps_, rec);
    if (!rec.hot) return {found - 1, w->deep_bytes(), false};
    w = rec.hot;
    return {found - 1, rec.hot_bytes, false};
  }

  // A fresh fragment with a parent delta-encodes against the parent's
  // warp when that pays; otherwise it is inserted hot-only and its full
  // encoding is produced lazily, if eviction ever demotes it.
  WarpRec rec;
  if (parent_id != kNoBase) {
    std::uint8_t base_depth = 0;
    const std::string base_bytes =
        warp_canonical_bytes(parent_id, &base_depth);
    if (base_depth < kDeltaMaxDepth) {
      if (mine.empty()) mine = encode_frag(*w);
      std::string d = support::delta::make(base_bytes, mine);
      if (d.size() + kDeltaSlack < mine.size()) {
        rec.warm = std::make_shared<const std::string>(std::move(d));
        rec.base = parent_id;
        rec.depth = static_cast<std::uint8_t>(base_depth + 1);
        stats_.resident_bytes += rec.warm->size();
        ++stats_.delta_fragments;
      }
    }
  }
  const auto id = static_cast<std::uint32_t>(warps_.recs.size());
  // An exact-size copy (its hash memoized with it) that the machine
  // then shares.
  rec.hot = std::make_shared<sem::Warp>(*w);
  w = rec.hot;
  const std::uint64_t deep = rec.hot->deep_bytes();
  rec.hash = h;
  rec.hot_bytes = deep;
  rec.ref = 1;
  warps_.recs.push_back(std::move(rec));
  warps_.index.add(id, [&](std::uint32_t i) {
    return warps_.recs[i].hash & hash_mask_;
  });
  ++warps_.live;
  ++stats_.warp_fragments;
  stats_.resident_bytes += deep;
  return {id, deep, true};
}

// --- bank fragment pool -----------------------------------------------

std::string StateStore::bank_canonical_bytes(const BankRec& rec) const {
  if (rec.warm) return *rec.warm;
  if (rec.cold_len > 0) return spill_.read(rec.cold_off, rec.cold_len);
  if (rec.hot) return encode_frag(*rec.hot);
  throw KernelError("bank fragment has no payload");
}

mem::Memory::BankRef StateStore::bank_ref(std::uint32_t id) const {
  if (id >= banks_.recs.size()) throw KernelError("unknown bank fragment");
  BankRec& rec = banks_.recs[id];
  touch(banks_, rec);
  if (rec.hot) return rec.hot;
  // Rematerialize and re-promote: banks are shared by refcount into
  // live machines, so handing out one shared object (instead of a fresh
  // copy per materialize) is what keeps copy-on-write cheap.
  const std::string bytes = bank_canonical_bytes(rec);
  support::BinReader r(bytes);
  auto bank = std::make_shared<mem::Memory::Bank>(mem::Memory::Bank::decode(r));
  rec.hot_bytes = bank->deep_bytes();
  rec.hot = bank;
  stats_.resident_bytes += rec.hot_bytes;
  ++stats_.rematerializations;
  return rec.hot;
}

StateStore::Frag StateStore::intern_bank(const mem::Memory::BankRef& b,
                                         std::uint32_t parent_id) {
  if (parent_id != kNoBase) {
    BankRec& rec = banks_.recs[parent_id];
    if (rec.hot == b) {
      touch(banks_, rec);
      return {parent_id, rec.hot_bytes, false};
    }
  }
  const std::uint64_t h = b->hash();  // memoized
  const std::uint64_t deep = b->deep_bytes();
  std::string mine;  // canonical bytes of b, encoded at most once
  const std::uint32_t found =
      banks_.index.find(h & hash_mask_, [&](std::uint32_t id) {
        const BankRec& rec = banks_.recs[id];
        if (rec.hash != h) return false;
        if (rec.hot) return rec.hot == b || *rec.hot == *b;
        if (mine.empty()) mine = encode_frag(*b);
        return bank_canonical_bytes(rec) == mine;
      });
  if (found != 0) {
    touch(banks_, banks_.recs[found - 1]);
    return {found - 1, deep, false};
  }
  const auto id = static_cast<std::uint32_t>(banks_.recs.size());
  BankRec rec;
  rec.hot = b;  // shared_ptr copy — the bytes are shared
  rec.hash = h;
  rec.hot_bytes = deep;
  rec.ref = 1;
  banks_.recs.push_back(std::move(rec));
  banks_.index.add(id, [&](std::uint32_t i) {
    return banks_.recs[i].hash & hash_mask_;
  });
  ++banks_.live;
  ++stats_.bank_fragments;
  stats_.resident_bytes += deep;
  return {id, deep, true};
}

// --- eviction ---------------------------------------------------------

template <typename Rec>
bool StateStore::step_rec(Pool<Rec>& p, Rec& rec) {
  if (rec.settled) return false;
  if (rec.ref != 0) {
    // Second chance.  Clearing the bit counts as progress: on a store
    // whose records are all freshly referenced (evict_all right after
    // a burst of interns), the first pass does nothing but clear bits,
    // and reporting it as a no-op would end the sweep loop before any
    // demotion happened.
    rec.ref = 0;
    return true;
  }
  if (rec.hot) {
    if (!rec.warm && rec.cold_len == 0) {
      // Hot-only record: produce the deferred full encoding now.
      auto full = std::make_shared<const std::string>(encode_frag(*rec.hot));
      stats_.resident_bytes += full->size();
      rec.warm = std::move(full);
    }
    // A bank's bytes are freed only once no live machine shares it; the
    // accounting is the usual estimate either way.
    rec.hot.reset();
    stats_.resident_bytes -= rec.hot_bytes;
    ++stats_.hot_evictions;
    return true;
  }
  if (rec.warm && rec.cold_len > 0) {
    // Warm shadow of an already-spilled payload.
    stats_.resident_bytes -= rec.warm->size();
    rec.warm.reset();
    return true;
  }
  if (rec.warm && spill_usable()) {
    try {
      rec.cold_off = spill_.append(*rec.warm);
    } catch (const KernelError& e) {
      // ENOSPC/EIO on the segment: keep the payload warm, shut the
      // cold tier off, and settle below — the verdict never depends on
      // where bytes live.
      degrade_spill(e.what());
      rec.settled = 1;
      --p.live;
      return false;
    }
    rec.cold_len = static_cast<std::uint32_t>(rec.warm->size());
    stats_.spilled_bytes += rec.warm->size();
    stats_.resident_bytes -= rec.warm->size();
    rec.warm.reset();
    ++stats_.spills;
    return true;
  }
  // Fully demoted for this configuration: settle it so future sweeps
  // skip it until something references it again.
  rec.settled = 1;
  --p.live;
  return false;
}

std::uint64_t StateStore::evict_pass(std::uint64_t stop_below) {
  std::uint64_t changed = 0;
  const auto sweep = [&](auto& pool) {
    const std::size_t n = pool.recs.size();
    for (std::size_t i = 0;
         i < n && pool.live > 0 && stats_.resident_bytes > stop_below; ++i) {
      if (pool.clock_hand >= n) pool.clock_hand = 0;
      if (step_rec(pool, pool.recs[pool.clock_hand])) ++changed;
      ++pool.clock_hand;
    }
  };
  sweep(warps_);
  sweep(banks_);
  return changed;
}

void StateStore::maybe_evict() {
  const std::uint64_t budget = resident_budget_;
  if (budget == 0 || stats_.resident_bytes <= budget) return;
  // Hysteresis: demote down to 15/16 of the budget, not just under it.
  // Stopping exactly at the budget line makes the very next intern
  // trigger another sweep — per-insert sweeps over the whole pools.
  // The 1/16 slack batches ~that many bytes of inserts per sweep
  // instead.
  const std::uint64_t target = budget - budget / 16;
  // The first pass over a region mostly clears second-chance bits, so a
  // few passes are allowed; a pass that demotes nothing means the
  // remaining residency is the floor (tuple records plus re-referenced
  // fragments) and retrying would only spin.
  for (int pass = 0; pass < 4; ++pass) {
    if (stats_.resident_bytes <= target) return;
    if (evict_pass(target) == 0) {
      // Nothing left to demote.  The successor cache only saves time,
      // so it goes before the budget is overrun.
      drop_successors();
      return;
    }
  }
}

void StateStore::evict_all() {
  while (evict_pass(0) != 0) {
  }
}

void StateStore::degrade_spill(const char* why) {
  ++stats_.degraded_spill;
  if (!spill_failed_) {
    spill_failed_ = true;
    std::fprintf(stderr,
                 "cacval: warning: spill tier disabled, continuing "
                 "resident-only: %s\n",
                 why);
  }
}

// --- visited-state table ----------------------------------------------

StateStore::InternResult StateStore::register_tuple(
    std::uint64_t max_states) {
  const std::uint32_t stride = shape_.tuple_len;
  if (tuple_.size() != stride) {
    throw KernelError("state tuple length does not match store shape");
  }
  const std::uint64_t h = tuple_hash(tuple_.data(), stride);
  const std::uint32_t found =
      slots_.find(h & hash_mask_, [&](std::uint32_t id) {
        // Tuple equality is the decider: fragments are interned, so
        // equal tuples <=> structurally equal machines.  The hash
        // compare is only a fast path.
        return hashes_[id] == h &&
               std::memcmp(tuples_.data() + std::size_t{id} * stride,
                           tuple_.data(), stride * sizeof(std::uint32_t)) == 0;
      });
  if (found != 0) return {StateId{found - 1}, false};
  // Existence before cap: a known state is found even when the store is
  // at capacity.
  if (stats_.states >= max_states) return {StateId{}, false};
  const auto id = static_cast<std::uint32_t>(hashes_.size());
  hashes_.push_back(h);
  tuples_.insert(tuples_.end(), tuple_.begin(), tuple_.end());
  slots_.add(id, [&](std::uint32_t i) { return hashes_[i] & hash_mask_; });
  ++stats_.states;
  stats_.resident_bytes += state_record_bytes(stride);
  return {StateId{id}, true};
}

const std::uint32_t* StateStore::tuple_at(StateId id, const char* who) const {
  if (!id.valid()) throw KernelError(std::string(who) + ": invalid StateId");
  if (id.v >= hashes_.size()) {
    throw KernelError(std::string(who) + ": unknown StateId");
  }
  return tuples_.data() + std::size_t{id.v} * shape_.tuple_len;
}

// --- successor cache --------------------------------------------------

std::uint64_t StateStore::pack(const std::uint32_t* tuple, Positions at) {
  const std::uint32_t bank = at.bank == kNoBase ? kNoBase : tuple[at.bank];
  return tuple[at.warp] | std::uint64_t{bank} << 32;
}

std::uint32_t StateStore::find_successor(std::uint64_t key) const {
  return succ_index_.find(
      key, [&](std::uint32_t e) { return succ_keys_[e] == key; });
}

void StateStore::record_successor(const std::uint32_t* parent_tuple,
                                  const Step& s) {
  const std::optional<Positions> at = positions(s);
  if (!at) return;
  // The cache is sound only because a warp step writes nothing but its
  // key's fragments; a step that did is a semantics bug, not a miss.
  for (std::uint32_t j = 0; j < shape_.tuple_len; ++j) {
    if (j != at->warp && j != at->bank && tuple_[j] != parent_tuple[j]) {
      throw KernelError("a warp step changed a fragment it does not read");
    }
  }
  const std::uint64_t key = pack(parent_tuple, *at);
  if (find_successor(key) != 0) return;
  const auto e = static_cast<std::uint32_t>(succ_keys_.size());
  succ_keys_.push_back(key);
  succ_vals_.push_back(pack(tuple_.data(), *at));
  succ_index_.add(e, [&](std::uint32_t i) { return succ_keys_[i]; });
  stats_.resident_bytes += kSuccessorRecordBytes;
}

void StateStore::drop_successors() {
  stats_.resident_bytes -= succ_keys_.size() * kSuccessorRecordBytes;
  succ_keys_ = {};
  succ_vals_ = {};
  succ_index_ = {};
}

// --- public API -------------------------------------------------------

StateStore::InternResult StateStore::intern(sem::Machine& m,
                                            std::uint64_t max_states,
                                            StateId parent,
                                            const Step* step) {
  ensure_shape(m);

  // The parent's tuple supplies, position by position, the fragment a
  // warp or bank the transition left alone still shares by pointer, and
  // the base each fresh warp delta-encodes against (one transition
  // steps one warp).
  const std::uint32_t* parent_tuple =
      parent.valid() && parent.v < hashes_.size()
          ? tuples_.data() + std::size_t{parent.v} * shape_.tuple_len
          : nullptr;
  const auto parent_frag = [&] {
    return parent_tuple != nullptr ? parent_tuple[tuple_.size()] : kNoBase;
  };

  tuple_.clear();
  std::uint64_t full_bytes = sizeof(sem::Machine);  // hypothetical copy
  for (sem::Block& b : m.grid.blocks) {
    for (sem::WarpRef& w : b.warps) {
      const Frag f = intern_warp(w, parent_frag());
      tuple_.push_back(f.id);
      full_bytes += f.deep_bytes;
    }
  }
  const auto add_bank = [&](const mem::Memory::BankRef& b) {
    const Frag f = intern_bank(b, parent_frag());
    tuple_.push_back(f.id);
    full_bytes += f.deep_bytes;
  };
  for (const mem::Memory::BankRef& b : m.memory.shared_bank_refs()) {
    add_bank(b);
  }
  add_bank(m.memory.bank_ref(mem::Space::Global));
  add_bank(m.memory.bank_ref(mem::Space::Const));
  add_bank(m.memory.bank_ref(mem::Space::Param));

  // Recorded before register_tuple, which may move the parent's tuple.
  if (step != nullptr && parent_tuple != nullptr) {
    record_successor(parent_tuple, *step);
  }
  const InternResult res = register_tuple(max_states);
  if (res.inserted) stats_.materialized_bytes += full_bytes;
  maybe_evict();
  return res;
}

std::optional<StateStore::InternResult> StateStore::intern_successor(
    StateId parent, const Step& step, std::uint64_t max_states) {
  const std::uint32_t* from = tuple_at(parent, "intern_successor");
  const std::optional<Positions> at = positions(step);
  const std::uint32_t e = at ? find_successor(pack(from, *at)) : 0;
  if (e == 0) {
    ++stats_.successor_misses;
    return std::nullopt;
  }
  ++stats_.successor_hits;
  const std::uint64_t to = succ_vals_[e - 1];
  tuple_.assign(from, from + shape_.tuple_len);
  tuple_[at->warp] = static_cast<std::uint32_t>(to);
  if (at->bank != kNoBase) {
    tuple_[at->bank] = static_cast<std::uint32_t>(to >> 32);
  }
  const InternResult res = register_tuple(max_states);
  if (res.inserted) {
    // The records' byte counts.  A pooled object never changes, so on
    // an unbudgeted run, where every fragment stays hot, this is what
    // intern() books for the stepped machine.
    std::uint64_t full_bytes = sizeof(sem::Machine);
    const std::uint32_t warps = shape_.warp_slots();
    for (std::uint32_t j = 0; j < shape_.tuple_len; ++j) {
      full_bytes += j < warps ? warps_.recs[tuple_[j]].hot_bytes
                              : banks_.recs[tuple_[j]].hot_bytes;
    }
    stats_.materialized_bytes += full_bytes;
    maybe_evict();
  }
  return res;
}

sem::Machine StateStore::materialize(StateId id) const {
  const std::uint32_t* tuple = tuple_at(id, "materialize");
  ++stats_.materializations;
  sem::Grid grid;
  std::size_t k = 0;
  grid.blocks.resize(shape_.warps_per_block.size());
  for (std::size_t b = 0; b < shape_.warps_per_block.size(); ++b) {
    std::vector<sem::WarpRef>& warps = grid.blocks[b].warps;
    warps.reserve(shape_.warps_per_block[b]);
    for (std::uint32_t i = 0; i < shape_.warps_per_block[b]; ++i) {
      warps.push_back(warp(tuple[k++]));
    }
  }
  std::vector<mem::Memory::BankRef> shared;
  shared.reserve(shape_.shared_banks);
  for (std::uint32_t i = 0; i < shape_.shared_banks; ++i) {
    shared.push_back(bank_ref(tuple[k++]));
  }
  mem::Memory::BankRef global = bank_ref(tuple[k++]);
  mem::Memory::BankRef constant = bank_ref(tuple[k++]);
  mem::Memory::BankRef param = bank_ref(tuple[k]);
  return sem::Machine(
      std::move(grid),
      mem::Memory::from_banks(std::move(global), std::move(constant),
                              std::move(shared), std::move(param),
                              shape_.shared_per_block));
}

std::uint64_t StateStore::machine_hash(StateId id) const {
  return materialize(id).hash();
}

std::span<const std::uint32_t> StateStore::tuple(StateId id) const {
  return {tuple_at(id, "tuple"), shape_.tuple_len};
}

// --- checkpoint codec (format v8) -------------------------------------

void StateStore::encode(support::BinWriter& w) const {
  w.u64(hash_mask_);
  const bool shaped = shape_.tuple_len != 0;
  w.u8(shaped ? 1 : 0);
  if (shaped) {
    w.u64(shape_.warps_per_block.size());
    for (const std::uint32_t n : shape_.warps_per_block) w.u32(n);
    w.u32(shape_.shared_banks);
    w.u64(shape_.shared_per_block);
    w.u32(shape_.tuple_len);
  }
  // Fragments are written in their *stored* form: a delta payload stays
  // a delta (base id and chain depth ride along), a cold payload is
  // read back from the spill segment.  A hot-only record encodes its
  // full form on the fly.
  w.u64(warps_.recs.size());
  for (const WarpRec& rec : warps_.recs) {
    w.u64(rec.hash);
    w.u32(rec.base);
    w.u8(rec.depth);
    if (rec.warm) {
      w.str(*rec.warm);
    } else if (rec.cold_len > 0) {
      w.str(spill_.read(rec.cold_off, rec.cold_len));
    } else {
      w.str(encode_frag(*rec.hot));
    }
  }
  w.u64(banks_.recs.size());
  for (const BankRec& rec : banks_.recs) {
    w.u64(rec.hash);
    w.str(bank_canonical_bytes(rec));
  }
  w.u64(hashes_.size());
  w.words(tuples_.data(), tuples_.size());
  w.u64(stats_.materialized_bytes);
}

void StateStore::decode(support::BinReader& r) {
  if (stats_.states != 0 || !warps_.recs.empty() || !banks_.recs.empty()) {
    throw KernelError("StateStore::decode: store not empty");
  }
  if (r.u64() != hash_mask_) {
    throw support::BinError("state store hash mask mismatch");
  }
  std::uint64_t n_warp_slots = 0;
  if (r.u8() != 0) {
    const std::uint64_t nb = r.count(sizeof(std::uint32_t));
    shape_.warps_per_block.reserve(nb);
    for (std::uint64_t i = 0; i < nb; ++i) {
      shape_.warps_per_block.push_back(r.u32());
      n_warp_slots += shape_.warps_per_block.back();
    }
    shape_.shared_banks = r.u32();
    shape_.shared_per_block = r.u64();
    shape_.tuple_len = r.u32();
    // materialize() walks the shape over each tuple, so the two must
    // agree exactly.
    if (shape_.tuple_len != n_warp_slots + shape_.shared_banks + 3) {
      throw support::BinError("state store shape inconsistent");
    }
    shape_.index();
  }
  // Fragments and states are appended in the serialized (= original
  // insertion) order, so every id comes out exactly as it was.  Every
  // payload lands in the warm tier (delta payloads stay deltas); the
  // recorded hashes are trusted — the checkpoint checksum already
  // covers them — and the indexes are rebuilt from them.
  const std::uint64_t n_warps = r.count(8 + 4 + 1 + 8);
  for (std::uint64_t i = 0; i < n_warps; ++i) {
    WarpRec rec;
    rec.hash = r.u64();
    rec.base = r.u32();
    rec.depth = r.u8();
    rec.warm = std::make_shared<const std::string>(r.str());
    if (rec.warm->empty()) {
      throw support::BinError("empty warp fragment payload");
    }
    stats_.resident_bytes += rec.warm->size();
    warps_.recs.push_back(std::move(rec));
  }
  // Bases can point at later fragments, so the chain graph is validated
  // once all warp fragments exist: every base resolves, and depths
  // strictly decrease along a chain (which rules out cycles) from at
  // most kDeltaMaxDepth.
  for (const WarpRec& rec : warps_.recs) {
    if (rec.base == kNoBase) {
      if (rec.depth != 0) {
        throw support::BinError("full warp payload with nonzero depth");
      }
      continue;
    }
    if (rec.base >= warps_.recs.size()) {
      throw support::BinError("warp delta base references unknown fragment");
    }
    if (rec.depth > kDeltaMaxDepth ||
        rec.depth != warps_.recs[rec.base].depth + 1) {
      throw support::BinError("warp delta chain depth inconsistent");
    }
    ++stats_.delta_fragments;
  }
  const std::uint64_t n_banks = r.count(8 + 8);
  for (std::uint64_t i = 0; i < n_banks; ++i) {
    BankRec rec;
    rec.hash = r.u64();
    rec.warm = std::make_shared<const std::string>(r.str());
    if (rec.warm->empty()) {
      throw support::BinError("empty bank fragment payload");
    }
    stats_.resident_bytes += rec.warm->size();
    banks_.recs.push_back(std::move(rec));
  }
  for (std::uint32_t id = 0; id < warps_.recs.size(); ++id) {
    warps_.index.add(id, [&](std::uint32_t i) {
      return warps_.recs[i].hash & hash_mask_;
    });
  }
  for (std::uint32_t id = 0; id < banks_.recs.size(); ++id) {
    banks_.index.add(id, [&](std::uint32_t i) {
      return banks_.recs[i].hash & hash_mask_;
    });
  }
  warps_.live = static_cast<std::uint32_t>(warps_.recs.size());
  banks_.live = static_cast<std::uint32_t>(banks_.recs.size());
  stats_.warp_fragments = warps_.recs.size();
  stats_.bank_fragments = banks_.recs.size();

  const std::uint32_t stride = shape_.tuple_len;
  const std::uint64_t n_states = r.count(stride * sizeof(std::uint32_t));
  if (n_states != 0 && stride == 0) {
    throw support::BinError("state store holds states but no shape");
  }
  hashes_.resize(n_states);
  tuples_.resize(n_states * stride);
  r.words(tuples_.data(), tuples_.size());
  for (std::uint64_t id = 0; id < n_states; ++id) {
    const std::uint32_t* tuple = tuples_.data() + id * stride;
    hashes_[id] = tuple_hash(tuple, stride);
    // Every tuple id must resolve inside its pool: the first
    // sum(warps_per_block) positions are warp fragments, the rest banks.
    // (The checksum already covers integrity; this keeps even a
    // hypothetical checksum-colliding corruption from indexing out of a
    // pool.)
    for (std::uint32_t j = 0; j < stride; ++j) {
      const std::size_t have =
          j < n_warp_slots ? warps_.recs.size() : banks_.recs.size();
      if (tuple[j] >= have) {
        throw support::BinError("state tuple references unknown fragment");
      }
    }
    slots_.add(static_cast<std::uint32_t>(id),
               [&](std::uint32_t i) { return hashes_[i] & hash_mask_; });
  }
  stats_.states = n_states;
  stats_.resident_bytes += n_states * state_record_bytes(stride);
  stats_.materialized_bytes = r.u64();
}

}  // namespace cac::sched
