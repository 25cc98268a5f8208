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

void StateStore::ensure_shape(const sem::Machine& m) {
  if (shape_.tuple_len != 0) return;
  std::uint32_t warps = 0;
  shape_.warps_per_block.reserve(m.grid.blocks.size());
  for (const sem::Block& b : m.grid.blocks) {
    const auto n = static_cast<std::uint32_t>(b.warps.size());
    shape_.warps_per_block.push_back(n);
    warps += n;
  }
  shape_.shared_banks =
      static_cast<std::uint32_t>(m.memory.shared_bank_refs().size());
  shape_.shared_per_block = m.memory.shared_size();
  shape_.tuple_len = warps + shape_.shared_banks + 3;
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

sem::Warp StateStore::warp_value(std::uint32_t id) const {
  if (id >= warps_.recs.size()) throw KernelError("unknown warp fragment");
  WarpRec& rec = warps_.recs[id];
  touch(warps_, rec);
  if (rec.hot) return *rec.hot;  // deep copy out of the hot tier
  const std::string bytes = warp_canonical_bytes(id);
  ++stats_.rematerializations;
  support::BinReader r(bytes);
  return sem::Warp::decode(r);
}

StateStore::Frag StateStore::intern_warp(const sem::Warp& w,
                                         std::uint32_t base_id) {
  const std::uint64_t h = w.hash();
  const std::uint64_t deep = w.deep_bytes();
  std::string mine;  // canonical bytes of w, encoded at most once
  const std::uint32_t found =
      warps_.index.find(h & hash_mask_, [&](std::uint32_t id) {
        const WarpRec& rec = warps_.recs[id];
        if (rec.hash != h) return false;
        if (rec.hot) return *rec.hot == w;
        // Warp::encode is deterministic and injective, so byte equality
        // of canonical encodings is structural equality — dedup against
        // a demoted fragment without rematerializing it.
        if (mine.empty()) mine = encode_frag(w);
        return warp_canonical_bytes(id) == mine;
      });
  if (found != 0) {
    touch(warps_, warps_.recs[found - 1]);
    return {found - 1, deep, false};
  }

  // A fresh fragment with a parent delta-encodes against the parent's
  // warp when that pays; otherwise it is inserted hot-only and its full
  // encoding is produced lazily, if eviction ever demotes it.
  WarpRec rec;
  if (base_id != kNoBase) {
    std::uint8_t base_depth = 0;
    const std::string base_bytes = warp_canonical_bytes(base_id, &base_depth);
    if (base_depth < kDeltaMaxDepth) {
      if (mine.empty()) mine = encode_frag(w);
      std::string d = support::delta::make(base_bytes, mine);
      if (d.size() + kDeltaSlack < mine.size()) {
        rec.warm = std::make_shared<const std::string>(std::move(d));
        rec.base = base_id;
        rec.depth = static_cast<std::uint8_t>(base_depth + 1);
        stats_.resident_bytes += rec.warm->size();
        ++stats_.delta_fragments;
      }
    }
  }
  const auto id = static_cast<std::uint32_t>(warps_.recs.size());
  rec.hot = std::make_shared<sem::Warp>(w);  // deep copy; the pool owns it
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

StateStore::Frag StateStore::intern_bank(const mem::Memory::BankRef& b) {
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
    if (evict_pass(target) == 0) return;
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

StateStore::InternResult StateStore::register_tuple(std::uint64_t h,
                                                    std::uint64_t max_states,
                                                    std::uint64_t full_bytes) {
  const std::uint32_t stride = shape_.tuple_len;
  if (tuple_.size() != stride) {
    throw KernelError("state tuple length does not match store shape");
  }
  const std::uint32_t found =
      slots_.find(h & hash_mask_, [&](std::uint32_t id) {
        // Tuple equality is the decider: fragments are interned, so
        // equal tuples <=> structurally equal machines.  The hash
        // compare is only a fast path (equal machines always hash
        // equal).
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
  stats_.materialized_bytes += full_bytes;
  return {StateId{id}, true};
}

const std::uint32_t* StateStore::tuple_at(StateId id, const char* who) const {
  if (!id.valid()) throw KernelError(std::string(who) + ": invalid StateId");
  if (id.v >= hashes_.size()) {
    throw KernelError(std::string(who) + ": unknown StateId");
  }
  return tuples_.data() + std::size_t{id.v} * shape_.tuple_len;
}

// --- public API -------------------------------------------------------

StateStore::InternResult StateStore::intern(const sem::Machine& m,
                                            std::uint64_t max_states,
                                            StateId parent) {
  ensure_shape(m);

  // The parent's tuple supplies, position by position, the base
  // fragment each fresh warp delta-encodes against (one transition
  // steps one warp; the untouched ones dedup against their base
  // exactly and cost nothing).
  const std::uint32_t* parent_tuple =
      parent.valid() && parent.v < hashes_.size()
          ? tuples_.data() + std::size_t{parent.v} * shape_.tuple_len
          : nullptr;

  tuple_.clear();
  std::uint64_t full_bytes = sizeof(sem::Machine);  // hypothetical copy
  for (const sem::Block& b : m.grid.blocks) {
    for (const sem::Warp& w : b.warps) {
      const std::uint32_t base =
          parent_tuple != nullptr && tuple_.size() < shape_.tuple_len
              ? parent_tuple[tuple_.size()]
              : kNoBase;
      const Frag f = intern_warp(w, base);
      tuple_.push_back(f.id);
      full_bytes += f.deep_bytes;
    }
  }
  const auto add_bank = [&](const mem::Memory::BankRef& b) {
    const Frag f = intern_bank(b);
    tuple_.push_back(f.id);
    full_bytes += f.deep_bytes;
  };
  for (const mem::Memory::BankRef& b : m.memory.shared_bank_refs()) {
    add_bank(b);
  }
  add_bank(m.memory.bank_ref(mem::Space::Global));
  add_bank(m.memory.bank_ref(mem::Space::Const));
  add_bank(m.memory.bank_ref(mem::Space::Param));

  const InternResult res = register_tuple(m.hash(), max_states, full_bytes);
  maybe_evict();
  return res;
}

sem::Machine StateStore::materialize(StateId id) const {
  const std::uint32_t* tuple = tuple_at(id, "materialize");
  sem::Machine m;
  std::size_t k = 0;
  m.grid.blocks.resize(shape_.warps_per_block.size());
  for (std::size_t b = 0; b < shape_.warps_per_block.size(); ++b) {
    std::vector<sem::Warp>& warps = m.grid.blocks[b].warps;
    warps.reserve(shape_.warps_per_block[b]);
    for (std::uint32_t i = 0; i < shape_.warps_per_block[b]; ++i) {
      warps.push_back(warp_value(tuple[k++]));
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
  m.memory =
      mem::Memory::from_banks(std::move(global), std::move(constant),
                              std::move(shared), std::move(param),
                              shape_.shared_per_block);
  return m;
}

std::uint64_t StateStore::machine_hash(StateId id) const {
  (void)tuple_at(id, "machine_hash");
  return hashes_[id.v];
}

// --- checkpoint codec (format v7) -------------------------------------

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
  for (std::size_t id = 0; id < hashes_.size(); ++id) {
    w.u64(hashes_[id]);
    w.words(tuples_.data() + id * shape_.tuple_len, shape_.tuple_len);
  }
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
  const std::uint64_t n_states =
      r.count(sizeof(std::uint64_t) + stride * sizeof(std::uint32_t));
  if (n_states != 0 && stride == 0) {
    throw support::BinError("state store holds states but no shape");
  }
  hashes_.resize(n_states);
  tuples_.resize(n_states * stride);
  for (std::uint64_t id = 0; id < n_states; ++id) {
    hashes_[id] = r.u64();
    std::uint32_t* tuple = tuples_.data() + id * stride;
    r.words(tuple, stride);
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

// --- per-state wire codec ---------------------------------------------

void StateStore::encode_state(StateId id, support::BinWriter& w) const {
  const std::uint32_t* tuple = tuple_at(id, "encode_state");
  w.u64(hashes_[id.v]);
  std::size_t k = 0;
  w.u64(shape_.warps_per_block.size());
  for (const std::uint32_t n_warps : shape_.warps_per_block) {
    w.u64(n_warps);
    for (std::uint32_t i = 0; i < n_warps; ++i) {
      // Canonical bytes == what Warp::encode would emit, so splicing
      // them keeps the wire format identical to pre-tiering senders,
      // independent of this store's tiering.
      const std::string b = warp_canonical_bytes(tuple[k++]);
      w.bytes(b.data(), b.size());
    }
  }
  const auto splice_bank = [&](std::uint32_t bank_id) {
    if (bank_id >= banks_.recs.size()) {
      throw KernelError("unknown bank fragment");
    }
    const std::string b = bank_canonical_bytes(banks_.recs[bank_id]);
    w.bytes(b.data(), b.size());
  };
  w.u64(shape_.shared_banks);
  for (std::uint32_t i = 0; i < shape_.shared_banks; ++i) {
    splice_bank(tuple[k++]);
  }
  splice_bank(tuple[k++]);  // global
  splice_bank(tuple[k++]);  // const
  splice_bank(tuple[k]);    // param
  w.u64(shape_.shared_per_block);
}

StateStore::WireIntern StateStore::decode_state(support::BinReader& r,
                                                std::uint64_t max_states) {
  WireIntern out;
  out.hash = r.u64();

  Shape got;  // shape as described by this record, checked against ours
  tuple_.clear();
  std::uint64_t full_bytes = sizeof(sem::Machine);
  std::uint32_t total_warps = 0;

  const std::uint64_t nb = r.count(sizeof(std::uint64_t));
  got.warps_per_block.reserve(nb);
  for (std::uint64_t b = 0; b < nb; ++b) {
    const std::uint64_t nw = r.count(1);
    got.warps_per_block.push_back(static_cast<std::uint32_t>(nw));
    total_warps += static_cast<std::uint32_t>(nw);
    for (std::uint64_t i = 0; i < nw; ++i) {
      const sem::Warp warp = sem::Warp::decode(r);
      // Mirrored states have no parent here; their fresh fragments stay
      // full-encoded (tiering still applies to them).
      const Frag f = intern_warp(warp, kNoBase);
      tuple_.push_back(f.id);
      full_bytes += f.deep_bytes;
    }
  }
  const auto decode_bank = [&] {
    auto bank =
        std::make_shared<mem::Memory::Bank>(mem::Memory::Bank::decode(r));
    const Frag f = intern_bank(bank);
    tuple_.push_back(f.id);
    full_bytes += f.deep_bytes;
  };
  const std::uint64_t ns = r.count(1);
  got.shared_banks = static_cast<std::uint32_t>(ns);
  for (std::uint64_t i = 0; i < ns; ++i) decode_bank();
  decode_bank();  // global
  decode_bank();  // const
  decode_bank();  // param
  got.shared_per_block = r.u64();
  got.tuple_len = total_warps + got.shared_banks + 3;

  // The first record fixes the store's shape; every later one must
  // agree (all peers of one distributed run explore the same launch).
  if (shape_.tuple_len == 0) shape_ = got;
  if (got.warps_per_block != shape_.warps_per_block ||
      got.shared_banks != shape_.shared_banks ||
      got.shared_per_block != shape_.shared_per_block ||
      got.tuple_len != shape_.tuple_len) {
    throw support::BinError("state record shape mismatch");
  }

  out.result = register_tuple(out.hash, max_states, full_bytes);
  maybe_evict();
  return out;
}

}  // namespace cac::sched
