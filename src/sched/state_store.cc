#include "sched/state_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
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

constexpr std::uint32_t kFragShardMask = 0xf;   // matches kFragShardBits
constexpr std::uint32_t kStateShardMask = 0x3f;  // matches kStateShardBits

// Belt against a (checksum-colliding) corrupt base graph: resolve never
// follows more links than any writer could have produced.
constexpr std::uint32_t kChainWalkCap = 512;

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

std::uint64_t round_pow2(std::uint64_t v) {
  std::uint64_t p = 64;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

// --- spill segment ----------------------------------------------------

StateStore::SpillFile::~SpillFile() {
  if (map_ != nullptr) ::munmap(map_, map_len_);
  if (fd_ >= 0) ::close(fd_);
}

void StateStore::SpillFile::open(const std::string& dir) {
  std::lock_guard<std::mutex> lock(mu_);
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
  std::lock_guard<std::mutex> lock(mu_);
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
  std::lock_guard<std::mutex> lock(mu_);
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

// --- construction / configuration ------------------------------------

StateStore::~StateStore() = default;

void StateStore::configure(const StoreOptions& opts) {
  delta_max_depth_.store(std::min<std::uint32_t>(opts.delta_max_depth, 255),
                         std::memory_order_relaxed);
  resident_budget_.store(opts.resident_budget_bytes,
                         std::memory_order_relaxed);
  const std::uint64_t bits = round_pow2(
      opts.bloom_bits_per_shard != 0 ? opts.bloom_bits_per_shard : 1u << 17);
  const bool resize = bits != bloom_bits_.load(std::memory_order_relaxed);
  bloom_bits_.store(bits, std::memory_order_relaxed);
  if (!opts.spill_dir.empty()) {
    const bool was_ready = spill_.ready();
    spill_dir_ = opts.spill_dir;
    bool opened = false;
    try {
      spill_.open(spill_dir_);
      opened = true;
    } catch (const KernelError& e) {
      // No cold tier, but no reason to abort the run either: eviction
      // simply stops at the warm tier (same as spill_dir unset).
      degrade_spill(e.what());
    }
    if (opened && !was_ready) {
      // Records that settled without a cold tier can now demote one
      // level further — revive them all for the sweep.
      for (WarpShard& s : warp_shards_) {
        std::lock_guard<std::mutex> lock(s.mu);
        for (WarpRec& rec : s.recs) rec.settled = 0;
        s.live = static_cast<std::uint32_t>(s.recs.size());
      }
      for (BankShard& s : bank_shards_) {
        std::lock_guard<std::mutex> lock(s.mu);
        for (BankRec& rec : s.recs) rec.settled = 0;
        s.live = static_cast<std::uint32_t>(s.recs.size());
      }
    }
  }
  if (resize) {
    // Existing filters were sized for the old bit count; drop them so
    // the next insert re-allocates at the new size, pre-seeded from the
    // stored hashes.
    for (StateShard& s : state_shards_) {
      std::lock_guard<std::mutex> lock(s.mu);
      s.bloom.reset();
    }
  }
}

// --- shape ------------------------------------------------------------

void StateStore::ensure_shape(const sem::Machine& m) {
  std::call_once(shape_once_, [&] {
    std::uint32_t warps = 0;
    shape_.warps_per_block.reserve(m.grid.blocks.size());
    for (const sem::Block& b : m.grid.blocks) {
      shape_.warps_per_block.push_back(
          static_cast<std::uint32_t>(b.warps.size()));
      warps += static_cast<std::uint32_t>(b.warps.size());
    }
    shape_.shared_banks =
        static_cast<std::uint32_t>(m.memory.shared_bank_refs().size());
    shape_.shared_per_block = m.memory.shared_size();
    shape_.tuple_len = warps + shape_.shared_banks + 3;
  });
}

// --- warp fragment pool -----------------------------------------------

std::string StateStore::warp_canonical_bytes(std::uint32_t id,
                                             std::uint8_t* depth_out) const {
  std::vector<std::string> deltas;  // target-first along the chain
  std::string bytes;
  std::uint32_t cur = id;
  for (std::uint32_t hops = 0;; ++hops) {
    if (hops > kChainWalkCap) {
      throw KernelError("warp fragment delta chain too long");
    }
    WarpShard& s = warp_shards_[cur & kFragShardMask];
    std::shared_ptr<const sem::Warp> hot;
    std::shared_ptr<const std::string> warm;
    std::uint64_t cold_off = 0;
    std::uint32_t cold_len = 0;
    std::uint32_t base = kNoBase;
    {
      std::lock_guard<std::mutex> lock(s.mu);
      const std::uint32_t local = cur >> kFragShardBits;
      if (local >= s.recs.size()) {
        throw KernelError("unknown warp fragment");
      }
      WarpRec& rec = s.recs[local];
      touch_locked(s, rec);
      if (hops == 0 && depth_out != nullptr) *depth_out = rec.depth;
      hot = rec.hot;
      warm = rec.warm;
      cold_off = rec.cold_off;
      cold_len = rec.cold_len;
      base = rec.base;
    }
    // Payload production happens outside the shard lock: the warm
    // string is immutable and kept alive by the shared_ptr, the spill
    // file has its own mutex, and encoding a hot warp is pure-local.
    std::string payload;
    if (hot) {
      bytes = encode_frag(*hot);  // canonical full form; chain ends here
      break;
    }
    if (warm) {
      payload = *warm;
    } else if (cold_len > 0) {
      payload = spill_.read(cold_off, cold_len);
    } else {
      throw KernelError("warp fragment has no payload");
    }
    if (base == kNoBase) {
      bytes = std::move(payload);
      break;
    }
    deltas.push_back(std::move(payload));
    cur = base;
  }
  for (auto it = deltas.rbegin(); it != deltas.rend(); ++it) {
    bytes = support::delta::apply(bytes, *it);
  }
  return bytes;
}

sem::Warp StateStore::warp_value(std::uint32_t id) const {
  WarpShard& s = warp_shards_[id & kFragShardMask];
  {
    std::lock_guard<std::mutex> lock(s.mu);
    const std::uint32_t local = id >> kFragShardBits;
    if (local >= s.recs.size()) throw KernelError("unknown warp fragment");
    WarpRec& rec = s.recs[local];
    touch_locked(s, rec);
    if (rec.hot) return *rec.hot;  // deep copy out of the hot tier
  }
  const std::string bytes = warp_canonical_bytes(id);
  remats_.fetch_add(1, std::memory_order_relaxed);
  support::BinReader r(bytes);
  return sem::Warp::decode(r);
}

StateStore::Frag StateStore::intern_warp(const sem::Warp& w,
                                         std::uint32_t base_id) {
  const std::uint64_t h = w.hash();
  const std::uint64_t masked = h & hash_mask_;
  const std::uint32_t shard_no =
      static_cast<std::uint32_t>(masked) & kFragShardMask;
  const std::uint64_t deep = w.deep_bytes();
  WarpShard& s = warp_shards_[shard_no];

  const auto insert_locked = [&](std::shared_ptr<const std::string> payload,
                                 std::uint32_t base,
                                 std::uint8_t depth) -> std::uint32_t {
    const auto local = static_cast<std::uint32_t>(s.recs.size());
    WarpRec rec;
    rec.hot = std::make_shared<sem::Warp>(w);  // deep copy; the pool owns it
    rec.hash = h;
    rec.hot_bytes = deep;
    rec.warm = std::move(payload);
    rec.base = base;
    rec.depth = depth;
    rec.ref = 1;
    std::uint64_t fresh = deep;
    if (rec.warm) {
      fresh += rec.warm->size();
      delta_frags_.fetch_add(1, std::memory_order_relaxed);
    }
    s.index[masked].push_back(local);
    s.recs.push_back(std::move(rec));
    ++s.live;
    n_warp_frags_.fetch_add(1, std::memory_order_relaxed);
    resident_bytes_.fetch_add(fresh, std::memory_order_relaxed);
    return (local << kFragShardBits) | shard_no;
  };

  std::vector<std::uint32_t> pending;   // non-hot candidates to byte-compare
  std::vector<std::uint32_t> compared;  // candidates already ruled out
  const bool want_delta =
      base_id != kNoBase &&
      delta_max_depth_.load(std::memory_order_relaxed) > 0;
  {
    std::lock_guard<std::mutex> lock(s.mu);
    const auto it = s.index.find(masked);
    if (it != s.index.end()) {
      for (const std::uint32_t local : it->second) {
        WarpRec& rec = s.recs[local];
        if (rec.hash != h) continue;
        if (rec.hot) {
          if (*rec.hot == w) {
            touch_locked(s, rec);
            return {(local << kFragShardBits) | shard_no, deep, false};
          }
          compared.push_back(local);
        } else {
          pending.push_back(local);
        }
      }
    }
    if (pending.empty() && !want_delta) {
      // Common path: no encoding, no second lock — insert hot-only (the
      // full encoding is produced lazily if eviction ever demotes it).
      return {insert_locked(nullptr, kNoBase, 0), deep, true};
    }
  }

  // Slow path: the canonical encoding is needed, either to byte-compare
  // against non-hot candidates or to build the delta payload.  All of
  // that happens with no shard lock held (resolving a base or candidate
  // takes other locks one at a time), then an optimistic relock/rescan
  // loop closes the race with concurrent inserters.
  const std::string mine = encode_frag(w);
  std::shared_ptr<const std::string> payload;
  std::uint32_t base = kNoBase;
  std::uint8_t depth = 0;
  if (want_delta) {
    std::uint8_t base_depth = 0;
    const std::string base_bytes = warp_canonical_bytes(base_id, &base_depth);
    if (base_depth + 1u <= delta_max_depth_.load(std::memory_order_relaxed)) {
      std::string d = support::delta::make(base_bytes, mine);
      if (d.size() + kDeltaSlack < mine.size()) {
        payload = std::make_shared<const std::string>(std::move(d));
        base = base_id;
        depth = static_cast<std::uint8_t>(base_depth + 1);
      }
    }
  }

  while (true) {
    for (const std::uint32_t local : pending) {
      const std::uint32_t cand_id = (local << kFragShardBits) | shard_no;
      // Warp::encode is deterministic and injective, so byte equality
      // of canonical encodings is structural equality — dedup against a
      // demoted fragment without rematerializing it.
      if (warp_canonical_bytes(cand_id) == mine) {
        std::lock_guard<std::mutex> lock(s.mu);
        touch_locked(s, s.recs[local]);
        return {cand_id, deep, false};
      }
      compared.push_back(local);
    }
    pending.clear();
    {
      std::lock_guard<std::mutex> lock(s.mu);
      const auto it = s.index.find(masked);
      if (it != s.index.end()) {
        for (const std::uint32_t local : it->second) {
          WarpRec& rec = s.recs[local];
          if (rec.hash != h) continue;
          if (std::find(compared.begin(), compared.end(), local) !=
              compared.end()) {
            continue;
          }
          if (rec.hot) {
            if (*rec.hot == w) {
              touch_locked(s, rec);
              return {(local << kFragShardBits) | shard_no, deep, false};
            }
            compared.push_back(local);
          } else {
            pending.push_back(local);
          }
        }
      }
      if (pending.empty()) {
        return {insert_locked(std::move(payload), base, depth), deep, true};
      }
    }
  }
}

// --- bank fragment pool -----------------------------------------------

std::string StateStore::bank_canonical_bytes_locked(const BankRec& rec) const {
  if (rec.warm) return *rec.warm;
  if (rec.cold_len > 0) return spill_.read(rec.cold_off, rec.cold_len);
  if (rec.hot) return encode_frag(*rec.hot);
  throw KernelError("bank fragment has no payload");
}

mem::Memory::BankRef StateStore::bank_ref(std::uint32_t id) const {
  BankShard& s = bank_shards_[id & kFragShardMask];
  std::lock_guard<std::mutex> lock(s.mu);
  const std::uint32_t local = id >> kFragShardBits;
  if (local >= s.recs.size()) throw KernelError("unknown bank fragment");
  BankRec& rec = s.recs[local];
  touch_locked(s, rec);
  if (rec.hot) return rec.hot;
  // Rematerialize and re-promote: banks are shared by refcount into
  // live machines, so handing out one shared object (instead of a fresh
  // copy per materialize) is what keeps copy-on-write cheap.
  const std::string bytes = bank_canonical_bytes_locked(rec);
  support::BinReader r(bytes);
  auto bank = std::make_shared<mem::Memory::Bank>(mem::Memory::Bank::decode(r));
  rec.hot_bytes = bank->deep_bytes();
  rec.hot = bank;
  resident_bytes_.fetch_add(rec.hot_bytes, std::memory_order_relaxed);
  remats_.fetch_add(1, std::memory_order_relaxed);
  return rec.hot;
}

StateStore::Frag StateStore::intern_bank(const mem::Memory::BankRef& b) {
  const std::uint64_t h = b->hash();  // memoized, thread-safe
  const std::uint64_t masked = h & hash_mask_;
  const std::uint32_t shard_no =
      static_cast<std::uint32_t>(masked) & kFragShardMask;
  const std::uint64_t deep = b->deep_bytes();
  BankShard& s = bank_shards_[shard_no];
  std::lock_guard<std::mutex> lock(s.mu);
  const auto it = s.index.find(masked);
  std::string mine;  // canonical bytes of b, encoded at most once
  if (it != s.index.end()) {
    for (const std::uint32_t local : it->second) {
      BankRec& rec = s.recs[local];
      if (rec.hash != h) continue;
      bool equal = false;
      if (rec.hot) {
        equal = rec.hot == b || *rec.hot == *b;
      } else {
        // Encoding under the shard lock is pure-local; the spill read
        // takes only the leaf spill mutex.  No second shard lock —
        // banks have no delta chains.
        if (mine.empty()) mine = encode_frag(*b);
        equal = bank_canonical_bytes_locked(rec) == mine;
      }
      if (equal) {
        touch_locked(s, rec);
        return {(local << kFragShardBits) | shard_no, deep, false};
      }
    }
  }
  const auto local = static_cast<std::uint32_t>(s.recs.size());
  BankRec rec;
  rec.hot = b;  // shared_ptr copy — the bytes are shared
  rec.hash = h;
  rec.hot_bytes = deep;
  rec.ref = 1;
  s.index[masked].push_back(local);
  s.recs.push_back(std::move(rec));
  ++s.live;
  n_bank_frags_.fetch_add(1, std::memory_order_relaxed);
  resident_bytes_.fetch_add(deep, std::memory_order_relaxed);
  return {(local << kFragShardBits) | shard_no, deep, true};
}

// --- eviction ---------------------------------------------------------

template <typename Rec>
bool StateStore::step_rec(FragShard<Rec>& s, Rec& rec) {
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
      // Hot-only record: produce the deferred full encoding now.  This
      // is pure-local work under the shard lock (never resolves another
      // fragment), so eviction cannot deadlock against intern.
      auto full = std::make_shared<const std::string>(encode_frag(*rec.hot));
      resident_bytes_.fetch_add(full->size(), std::memory_order_relaxed);
      rec.warm = std::move(full);
    }
    // A bank's bytes are freed only once no live machine shares it; the
    // accounting is the usual estimate either way.
    rec.hot.reset();
    resident_bytes_.fetch_sub(rec.hot_bytes, std::memory_order_relaxed);
    hot_evictions_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  if (rec.warm && rec.cold_len > 0) {
    // Warm shadow of an already-spilled payload.
    resident_bytes_.fetch_sub(rec.warm->size(), std::memory_order_relaxed);
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
      --s.live;
      return false;
    }
    rec.cold_len = static_cast<std::uint32_t>(rec.warm->size());
    spilled_bytes_.fetch_add(rec.warm->size(), std::memory_order_relaxed);
    resident_bytes_.fetch_sub(rec.warm->size(), std::memory_order_relaxed);
    rec.warm.reset();
    spills_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  // Fully demoted for this configuration: settle it so future sweeps
  // skip it until something references it again.
  rec.settled = 1;
  --s.live;
  return false;
}

std::uint64_t StateStore::evict_pass(std::uint64_t stop_below) {
  std::uint64_t changed = 0;
  const auto sweep = [&](auto& s) {
    std::lock_guard<std::mutex> lock(s.mu);
    const std::size_t n = s.recs.size();
    for (std::size_t i = 0; i < n && s.live > 0; ++i) {
      if (resident_bytes_.load(std::memory_order_relaxed) <= stop_below) {
        break;
      }
      if (s.clock_hand >= n) s.clock_hand = 0;
      if (step_rec(s, s.recs[s.clock_hand])) ++changed;
      ++s.clock_hand;
    }
  };
  for (unsigned sh = 0; sh < (1u << kFragShardBits); ++sh) {
    if (resident_bytes_.load(std::memory_order_relaxed) <= stop_below) {
      return changed;
    }
    sweep(warp_shards_[sh]);
    sweep(bank_shards_[sh]);
  }
  return changed;
}

void StateStore::maybe_evict() {
  const std::uint64_t budget = resident_budget_.load(std::memory_order_relaxed);
  if (budget == 0 ||
      resident_bytes_.load(std::memory_order_relaxed) <= budget) {
    return;
  }
  std::unique_lock<std::mutex> ev(evict_mu_, std::try_to_lock);
  if (!ev.owns_lock()) return;  // another thread is already sweeping
  // Hysteresis: demote down to 15/16 of the budget, not just under it.
  // Stopping exactly at the budget line makes the very next intern
  // trigger another sweep — per-insert sweeps over the whole shard
  // array.  The 1/16 slack batches ~that many bytes of inserts per
  // sweep instead.
  const std::uint64_t target = budget - budget / 16;
  // The first pass over a region mostly clears second-chance bits, so a
  // few passes are allowed; a pass that demotes nothing means the
  // remaining residency is the floor (tuple records plus re-referenced
  // fragments) and retrying would only spin.
  for (int pass = 0; pass < 4; ++pass) {
    if (resident_bytes_.load(std::memory_order_relaxed) <= target) return;
    if (evict_pass(target) == 0) return;
  }
}

void StateStore::evict_all() {
  std::lock_guard<std::mutex> ev(evict_mu_);
  while (evict_pass(0) != 0) {
  }
}

// --- visited-state table ----------------------------------------------

bool StateStore::bloom_maybe_locked(const StateShard& s,
                                    std::uint64_t masked) const {
  if (!s.bloom) return true;  // no filter yet — fall through to probe
  const std::uint64_t bits = bloom_bits_.load(std::memory_order_relaxed);
  const std::uint64_t x = splitmix(masked);
  const std::uint64_t p1 = x & (bits - 1);
  const std::uint64_t p2 = ((x >> 32) ^ (x << 17)) & (bits - 1);
  return ((s.bloom[p1 >> 6] >> (p1 & 63)) & 1) != 0 &&
         ((s.bloom[p2 >> 6] >> (p2 & 63)) & 1) != 0;
}

void StateStore::bloom_add_locked(StateShard& s, std::uint64_t masked) {
  const std::uint64_t bits = bloom_bits_.load(std::memory_order_relaxed);
  if (!s.bloom) {
    // Lazy allocation, pre-seeded with every hash this shard already
    // holds (a filter missing an existing state would break the
    // never-false-negative contract dedup exactness rests on).
    s.bloom = std::make_unique<std::uint64_t[]>(bits / 64);
    std::memset(s.bloom.get(), 0, bits / 8);
    for (const std::uint64_t h : s.hashes) {
      const std::uint64_t x = splitmix(h & hash_mask_);
      const std::uint64_t p1 = x & (bits - 1);
      const std::uint64_t p2 = ((x >> 32) ^ (x << 17)) & (bits - 1);
      s.bloom[p1 >> 6] |= 1ull << (p1 & 63);
      s.bloom[p2 >> 6] |= 1ull << (p2 & 63);
    }
  }
  const std::uint64_t x = splitmix(masked);
  const std::uint64_t p1 = x & (bits - 1);
  const std::uint64_t p2 = ((x >> 32) ^ (x << 17)) & (bits - 1);
  s.bloom[p1 >> 6] |= 1ull << (p1 & 63);
  s.bloom[p2 >> 6] |= 1ull << (p2 & 63);
}

std::uint32_t StateStore::probe_locked(
    const StateShard& s, std::uint64_t h,
    const std::vector<std::uint32_t>& tuple) const {
  if (s.slots.empty()) return 0;
  const std::uint64_t mask = s.slots.size() - 1;
  const std::uint32_t stride = shape_.tuple_len;
  std::uint64_t i = splitmix(h & hash_mask_) & mask;
  while (s.slots[i] != 0) {
    const std::uint32_t local = s.slots[i] - 1;
    // Tuple equality is the decider: fragments are interned, so equal
    // tuples <=> structurally equal machines.  The hash compare is only
    // a fast path (equal machines always hash equal).
    if (s.hashes[local] == h &&
        std::memcmp(
            s.tuples.data() + static_cast<std::size_t>(local) * stride,
            tuple.data(), stride * sizeof(std::uint32_t)) == 0) {
      return local + 1;
    }
    i = (i + 1) & mask;
  }
  return 0;
}

void StateStore::slot_insert_locked(StateShard& s, std::uint32_t local) {
  const auto place = [&](std::uint32_t l) {
    const std::uint64_t mask = s.slots.size() - 1;
    std::uint64_t i = splitmix(s.hashes[l] & hash_mask_) & mask;
    while (s.slots[i] != 0) i = (i + 1) & mask;
    s.slots[i] = l + 1;
  };
  // Keep the load factor under 0.7; `local` is already in `hashes`.
  if ((s.hashes.size() + 1) * 10 > s.slots.size() * 7) {
    std::size_t cap = s.slots.empty() ? 64 : s.slots.size() * 2;
    while (cap * 7 < (s.hashes.size() + 1) * 10) cap *= 2;
    s.slots.assign(cap, 0);
    for (std::uint32_t l = 0; l < s.hashes.size(); ++l) place(l);
    return;
  }
  place(local);
}

StateStore::InternResult StateStore::register_tuple(
    std::uint64_t h, std::vector<std::uint32_t>&& tuple,
    std::uint64_t max_states, std::uint64_t full_bytes) {
  if (tuple.size() != shape_.tuple_len) {
    throw KernelError("state tuple length does not match store shape");
  }
  const std::uint64_t masked = h & hash_mask_;
  const std::uint32_t shard_no =
      static_cast<std::uint32_t>(masked) & kStateShardMask;
  StateShard& s = state_shards_[shard_no];
  std::lock_guard<std::mutex> lock(s.mu);
  const bool had_filter = s.bloom != nullptr;
  std::uint32_t found = 0;
  if (bloom_maybe_locked(s, masked)) {
    found = probe_locked(s, h, tuple);
    if (found == 0 && had_filter) {
      bloom_fp_.fetch_add(1, std::memory_order_relaxed);
    }
  } else {
    // Two word reads decided "definitely new": no probe at all, and the
    // insert below is allocation-free in the amortized case.
    bloom_neg_.fetch_add(1, std::memory_order_relaxed);
  }
  if (found != 0) {
    return {StateId{((found - 1) << kStateShardBits) | shard_no}, false};
  }
  // Existence before cap, matching both explorers: a known state is
  // found even when the store is at capacity.
  if (n_states_.load(std::memory_order_relaxed) >= max_states) {
    return {StateId{}, false};
  }
  const auto local = static_cast<std::uint32_t>(s.hashes.size());
  s.hashes.push_back(h);
  s.tuples.insert(s.tuples.end(), tuple.begin(), tuple.end());
  slot_insert_locked(s, local);
  bloom_add_locked(s, masked);
  const std::uint64_t tuple_bytes = tuple.size() * sizeof(std::uint32_t) +
                                    sizeof(std::uint64_t) +
                                    sizeof(std::uint32_t);
  n_states_.fetch_add(1, std::memory_order_relaxed);
  resident_bytes_.fetch_add(tuple_bytes, std::memory_order_relaxed);
  materialized_bytes_.fetch_add(full_bytes, std::memory_order_relaxed);
  return {StateId{(local << kStateShardBits) | shard_no}, true};
}

std::vector<std::uint32_t> StateStore::tuple_of(StateId id) const {
  if (!id.valid()) return {};
  const StateShard& s = state_shards_[id.v & kStateShardMask];
  const std::uint32_t local = id.v >> kStateShardBits;
  std::lock_guard<std::mutex> lock(s.mu);
  if (local >= s.hashes.size()) return {};
  const std::uint32_t stride = shape_.tuple_len;
  const std::uint32_t* p =
      s.tuples.data() + static_cast<std::size_t>(local) * stride;
  return std::vector<std::uint32_t>(p, p + stride);
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
  std::vector<std::uint32_t> parent_tuple;
  if (parent.valid() &&
      delta_max_depth_.load(std::memory_order_relaxed) > 0) {
    parent_tuple = tuple_of(parent);
  }

  // Intern every fragment first (pool shard locks, taken one at a
  // time), then register the id tuple under the state shard lock.
  std::vector<std::uint32_t> tuple;
  tuple.reserve(shape_.tuple_len);
  std::uint64_t full_bytes = sizeof(sem::Machine);  // hypothetical copy
  std::size_t warp_idx = 0;

  for (const sem::Block& b : m.grid.blocks) {
    for (const sem::Warp& w : b.warps) {
      const std::uint32_t base = warp_idx < parent_tuple.size()
                                     ? parent_tuple[warp_idx]
                                     : kNoBase;
      ++warp_idx;
      const Frag f = intern_warp(w, base);
      tuple.push_back(f.id);
      full_bytes += f.deep_bytes;
    }
  }
  const auto add_bank = [&](const mem::Memory::BankRef& b) {
    const Frag f = intern_bank(b);
    tuple.push_back(f.id);
    full_bytes += f.deep_bytes;
  };
  for (const mem::Memory::BankRef& b : m.memory.shared_bank_refs()) {
    add_bank(b);
  }
  add_bank(m.memory.bank_ref(mem::Space::Global));
  add_bank(m.memory.bank_ref(mem::Space::Const));
  add_bank(m.memory.bank_ref(mem::Space::Param));

  const InternResult res =
      register_tuple(m.hash(), std::move(tuple), max_states, full_bytes);
  maybe_evict();
  return res;
}

sem::Machine StateStore::materialize(StateId id) const {
  if (!id.valid()) throw KernelError("materialize: invalid StateId");
  const std::vector<std::uint32_t> tuple = tuple_of(id);
  if (tuple.empty()) throw KernelError("materialize: unknown StateId");

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
  if (!id.valid()) throw KernelError("machine_hash: invalid StateId");
  const StateShard& s = state_shards_[id.v & kStateShardMask];
  std::lock_guard<std::mutex> lock(s.mu);
  const std::uint32_t local = id.v >> kStateShardBits;
  if (local >= s.hashes.size()) {
    throw KernelError("machine_hash: unknown StateId");
  }
  return s.hashes[local];
}

StateStore::Stats StateStore::stats() const {
  Stats st;
  st.states = n_states_.load(std::memory_order_relaxed);
  st.warp_fragments = n_warp_frags_.load(std::memory_order_relaxed);
  st.bank_fragments = n_bank_frags_.load(std::memory_order_relaxed);
  st.resident_bytes = resident_bytes_.load(std::memory_order_relaxed);
  st.materialized_bytes = materialized_bytes_.load(std::memory_order_relaxed);
  st.spilled_bytes = spilled_bytes_.load(std::memory_order_relaxed);
  st.hot_evictions = hot_evictions_.load(std::memory_order_relaxed);
  st.spills = spills_.load(std::memory_order_relaxed);
  st.rematerializations = remats_.load(std::memory_order_relaxed);
  st.delta_fragments = delta_frags_.load(std::memory_order_relaxed);
  st.bloom_negatives = bloom_neg_.load(std::memory_order_relaxed);
  st.bloom_false_positives = bloom_fp_.load(std::memory_order_relaxed);
  st.degraded_spill = degraded_spill_.load(std::memory_order_relaxed);
  return st;
}

void StateStore::degrade_spill(const char* why) {
  degraded_spill_.fetch_add(1, std::memory_order_relaxed);
  if (!spill_failed_.exchange(true, std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "cacval: warning: spill tier disabled, continuing "
                 "resident-only: %s\n",
                 why);
  }
}

// --- checkpoint codec (format v4) -------------------------------------

void StateStore::encode(support::BinWriter& w) const {
  w.u64(hash_mask_);
  const bool shaped = !shape_.warps_per_block.empty() || shape_.tuple_len != 0;
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
  for (const WarpShard& s : warp_shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    w.u64(s.recs.size());
    for (const WarpRec& rec : s.recs) {
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
  }
  for (const BankShard& s : bank_shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    w.u64(s.recs.size());
    for (const BankRec& rec : s.recs) {
      w.u64(rec.hash);
      w.str(bank_canonical_bytes_locked(rec));
    }
  }
  for (const StateShard& s : state_shards_) {
    std::lock_guard<std::mutex> lock(s.mu);
    w.u64(s.hashes.size());
    const std::uint32_t stride = shape_.tuple_len;
    for (std::size_t local = 0; local < s.hashes.size(); ++local) {
      w.u64(s.hashes[local]);
      w.u64(stride);
      const std::uint32_t* p = s.tuples.data() + local * stride;
      for (std::uint32_t j = 0; j < stride; ++j) w.u32(p[j]);
    }
  }
  w.u64(n_states_.load(std::memory_order_relaxed));
  w.u64(n_warp_frags_.load(std::memory_order_relaxed));
  w.u64(n_bank_frags_.load(std::memory_order_relaxed));
  w.u64(resident_bytes_.load(std::memory_order_relaxed));
  w.u64(materialized_bytes_.load(std::memory_order_relaxed));
}

void StateStore::decode(support::BinReader& r) {
  if (n_states_.load(std::memory_order_relaxed) != 0) {
    throw KernelError("StateStore::decode: store not empty");
  }
  if (r.u64() != hash_mask_) {
    throw support::BinError("state store hash mask mismatch");
  }
  if (r.u8() != 0) {
    Shape shape;
    const std::uint64_t nb = r.count(sizeof(std::uint32_t));
    shape.warps_per_block.reserve(nb);
    for (std::uint64_t i = 0; i < nb; ++i) {
      shape.warps_per_block.push_back(r.u32());
    }
    shape.shared_banks = r.u32();
    shape.shared_per_block = r.u64();
    shape.tuple_len = r.u32();
    // Through call_once so a later ensure_shape() is a no-op.
    std::call_once(shape_once_, [&] { shape_ = std::move(shape); });
  }
  // Fragments and states are appended in the serialized (= original
  // insertion) order, so every (shard, local) pair — and therefore
  // every id — comes out exactly as it was.  Every payload lands in the
  // warm tier (delta payloads stay deltas); the recorded hashes are
  // trusted — the checkpoint checksum already covers them — and index
  // buckets are rebuilt from them.
  std::uint64_t warm_resident = 0;
  std::uint64_t n_warps = 0;
  std::uint64_t n_banks = 0;
  std::uint64_t n_deltas = 0;
  for (WarpShard& s : warp_shards_) {
    const std::uint64_t n = r.count();
    for (std::uint64_t i = 0; i < n; ++i) {
      WarpRec rec;
      rec.hash = r.u64();
      rec.base = r.u32();
      rec.depth = r.u8();
      auto payload = std::make_shared<const std::string>(r.str());
      if (payload->empty()) {
        throw support::BinError("empty warp fragment payload");
      }
      warm_resident += payload->size();
      rec.warm = std::move(payload);
      s.index[rec.hash & hash_mask_].push_back(
          static_cast<std::uint32_t>(s.recs.size()));
      s.recs.push_back(std::move(rec));
      ++n_warps;
    }
    s.live = static_cast<std::uint32_t>(s.recs.size());
  }
  // Bases can point into later shards, so the chain graph is validated
  // once all warp fragments exist: every base resolves, and depths
  // strictly decrease along a chain (which rules out cycles).
  for (const WarpShard& s : warp_shards_) {
    for (const WarpRec& rec : s.recs) {
      if (rec.base == kNoBase) {
        if (rec.depth != 0) {
          throw support::BinError("full warp payload with nonzero depth");
        }
        continue;
      }
      const WarpShard& bs = warp_shards_[rec.base & kFragShardMask];
      const std::uint32_t blocal = rec.base >> kFragShardBits;
      if (blocal >= bs.recs.size()) {
        throw support::BinError("warp delta base references unknown fragment");
      }
      if (rec.depth != bs.recs[blocal].depth + 1) {
        throw support::BinError("warp delta chain depth inconsistent");
      }
      ++n_deltas;
    }
  }
  for (BankShard& s : bank_shards_) {
    const std::uint64_t n = r.count();
    for (std::uint64_t i = 0; i < n; ++i) {
      BankRec rec;
      rec.hash = r.u64();
      auto payload = std::make_shared<const std::string>(r.str());
      if (payload->empty()) {
        throw support::BinError("empty bank fragment payload");
      }
      warm_resident += payload->size();
      rec.warm = std::move(payload);
      s.index[rec.hash & hash_mask_].push_back(
          static_cast<std::uint32_t>(s.recs.size()));
      s.recs.push_back(std::move(rec));
      ++n_banks;
    }
    s.live = static_cast<std::uint32_t>(s.recs.size());
  }
  // Every tuple id must resolve inside its pool: the first
  // sum(warps_per_block) positions are warp fragments, the rest banks.
  // (The checksum already covers integrity; this keeps even a
  // hypothetical checksum-colliding corruption from indexing out of a
  // pool.)
  std::uint64_t n_warp_slots = 0;
  for (const std::uint32_t n : shape_.warps_per_block) n_warp_slots += n;
  const auto check_id = [&](std::uint32_t id, bool is_warp) {
    const std::uint32_t shard = id & ((1u << kFragShardBits) - 1);
    const std::uint32_t local = id >> kFragShardBits;
    const std::size_t have = is_warp ? warp_shards_[shard].recs.size()
                                     : bank_shards_[shard].recs.size();
    if (local >= have) {
      throw support::BinError("state tuple references unknown fragment");
    }
  };
  std::uint64_t states = 0;
  std::uint64_t tuple_bytes = 0;
  for (StateShard& s : state_shards_) {
    const std::uint64_t n = r.count();
    for (std::uint64_t i = 0; i < n; ++i) {
      const std::uint64_t h = r.u64();
      const std::uint64_t tn = r.count(sizeof(std::uint32_t));
      if (tn != shape_.tuple_len) {
        throw support::BinError("state tuple length mismatch");
      }
      const auto local = static_cast<std::uint32_t>(s.hashes.size());
      s.hashes.push_back(h);
      for (std::uint64_t j = 0; j < tn; ++j) {
        const std::uint32_t id = r.u32();
        check_id(id, j < n_warp_slots);
        s.tuples.push_back(id);
      }
      slot_insert_locked(s, local);
      bloom_add_locked(s, h & hash_mask_);
      tuple_bytes += tn * sizeof(std::uint32_t) + sizeof(std::uint64_t) +
                     sizeof(std::uint32_t);
      ++states;
    }
  }
  r.u64();  // encoder's states counter (recounted above)
  r.u64();  // encoder's warp fragment counter
  r.u64();  // encoder's bank fragment counter
  r.u64();  // encoder's resident bytes: tiering-dependent, recomputed
  const std::uint64_t materialized = r.u64();
  n_states_.store(states, std::memory_order_relaxed);
  n_warp_frags_.store(n_warps, std::memory_order_relaxed);
  n_bank_frags_.store(n_banks, std::memory_order_relaxed);
  delta_frags_.store(n_deltas, std::memory_order_relaxed);
  resident_bytes_.store(warm_resident + tuple_bytes,
                        std::memory_order_relaxed);
  materialized_bytes_.store(materialized, std::memory_order_relaxed);
}

// --- per-state wire codec ---------------------------------------------

void StateStore::encode_state(StateId id, support::BinWriter& w) const {
  if (!id.valid()) throw KernelError("encode_state: invalid StateId");
  const std::uint64_t hash = machine_hash(id);  // also validates the id
  const std::vector<std::uint32_t> tuple = tuple_of(id);
  w.u64(hash);
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
    const BankShard& s = bank_shards_[bank_id & kFragShardMask];
    std::lock_guard<std::mutex> lock(s.mu);
    const std::uint32_t local = bank_id >> kFragShardBits;
    if (local >= s.recs.size()) throw KernelError("unknown bank fragment");
    const std::string b = bank_canonical_bytes_locked(s.recs[local]);
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
  std::vector<std::uint32_t> tuple;
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
      tuple.push_back(f.id);
      full_bytes += f.deep_bytes;
    }
  }
  const auto decode_bank = [&] {
    auto bank =
        std::make_shared<mem::Memory::Bank>(mem::Memory::Bank::decode(r));
    const Frag f = intern_bank(bank);
    tuple.push_back(f.id);
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
  std::call_once(shape_once_, [&] { shape_ = got; });
  if (got.warps_per_block != shape_.warps_per_block ||
      got.shared_banks != shape_.shared_banks ||
      got.shared_per_block != shape_.shared_per_block ||
      got.tuple_len != shape_.tuple_len) {
    throw support::BinError("state record shape mismatch");
  }

  out.result =
      register_tuple(out.hash, std::move(tuple), max_states, full_bytes);
  maybe_evict();
  return out;
}

}  // namespace cac::sched
