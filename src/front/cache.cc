#include "front/cache.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>
#include <utility>

#include "front/json.h"
#include "ptx/lower.h"
#include "support/io.h"

namespace cac::front {

namespace {

// Canonical request text: an unambiguous byte stream (every field
// length-prefixed) over exactly the structural content.  The two hash
// streams are seeded differently, so a collision requires breaking
// both simultaneously.

void put_u64(std::string& s, std::uint64_t v) {
  ptx::append_decimal(s, v);
  s += '\x1f';
}

void put_str(std::string& s, std::string_view v) {
  put_u64(s, v.size());
  s += v;
  s += '\x1f';
}

void put_bool(std::string& s, bool v) { put_u64(s, v ? 1 : 0); }

/// The canonical form of a module: the printed representation of each
/// lowered kernel plus the shared layout.  Comments, whitespace, and
/// declaration order of unrelated directives all wash out here.  Each
/// kernel prints straight into `s`; its length prefix goes in front
/// afterwards, so the bytes are put_str's.
void put_module(std::string& s, const std::string& source,
                bool insert_syncs) {
  ptx::LowerOptions lopts;
  lopts.insert_syncs = insert_syncs;
  const ptx::LoweredModule mod = ptx::load_ptx(source, lopts);
  put_u64(s, mod.kernels.size());
  for (const ptx::Program& k : mod.kernels) {
    const std::size_t at = s.size();
    ptx::append_text(s, k);
    std::string len;
    put_u64(len, s.size() - at);
    s.insert(at, len);
    s += '\x1f';
  }
  put_u64(s, mod.shared_bytes);
}

void put_geometry(std::string& s, const sem::LaunchSpec& l) {
  put_u64(s, l.grid.x);
  put_u64(s, l.grid.y);
  put_u64(s, l.grid.z);
  put_u64(s, l.block.x);
  put_u64(s, l.block.y);
  put_u64(s, l.block.z);
  put_u64(s, l.warp_size);
}

void put_launch(std::string& s, const sem::LaunchSpec& l) {
  put_geometry(s, l);
  put_u64(s, l.global_bytes);
  put_u64(s, l.shared_bytes);
  put_u64(s, l.params.size());
  for (const auto& [name, value] : l.params) {
    put_str(s, name);
    put_u64(s, value);
  }
  put_u64(s, l.inits.size());
  for (const auto& [addr, value] : l.inits) {
    put_u64(s, addr);
    put_u64(s, value);
  }
}

std::string canonical(const CheckRequest& c) {
  std::string s;
  put_str(s, c.full_validate ? "validate" : "check");
  put_module(s, c.source, c.insert_syncs);
  put_str(s, c.kernel);
  put_launch(s, c.launch);
  // Structural exploration options only (see the header).
  put_u64(s, c.explore.max_depth);
  put_u64(s, c.explore.max_states);
  put_bool(s, c.explore.stop_at_first_violation);
  put_bool(s, c.explore.partial_order_reduction);
  put_u64(s, c.expects.size());
  for (const auto& [addr, value] : c.expects) {
    put_u64(s, addr);
    put_u64(s, value);
  }
  put_bool(s, c.require_independence);
  put_u64(s, c.exact_steps);
  put_bool(s, c.por_oracle);
  put_bool(s, c.profile);
  return s;
}

std::string canonical(const LintRequest& l) {
  std::string s;
  put_str(s, "lint");
  put_module(s, l.source, l.insert_syncs);
  put_str(s, l.kernel);
  put_bool(s, l.races);
  put_bool(s, l.perf);
  return s;
}

std::string canonical(const EquivRequest& e) {
  std::string s;
  put_str(s, "equiv");
  put_module(s, e.source, e.insert_syncs);
  put_module(s, e.source_b, e.insert_syncs);
  put_str(s, e.kernel);
  put_str(s, e.kernel_b);
  put_geometry(s, e.launch);
  // The symbolic bounds are structural: they decide inconclusive vs
  // proved.
  put_u64(s, e.sym.max_steps);
  put_u64(s, e.sym.max_paths);
  // Checker configuration is structural too: mode and the
  // normalize/counterexample switches each change the verdict class a
  // request can produce.  cex_inputs is a transient budget — excluded;
  // the budget-exhausted inconclusive it could skew is never cached
  // (see cacheable()).
  put_str(s, e.mode);
  put_bool(s, e.normalize);
  put_bool(s, e.counterexample);
  return s;
}

}  // namespace

std::string CacheKey::hex() const {
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(hi),
                static_cast<unsigned long long>(lo));
  return buf;
}

CacheKey cache_key(const Request& req) {
  std::string s;
  if (const auto* c = std::get_if<CheckRequest>(&req)) {
    s = canonical(*c);
  } else if (const auto* l = std::get_if<LintRequest>(&req)) {
    s = canonical(*l);
  } else {
    s = canonical(std::get<EquivRequest>(req));
  }
  // Both FNV-1a streams in one pass: two independent multiply chains.
  CacheKey key{0xcbf29ce484222325ull, 0x9ae16a3b2f90404full};
  for (const unsigned char c : s) {
    key.hi = (key.hi ^ c) * 0x100000001b3ull;
    key.lo = (key.lo ^ c) * 0x100000001b3ull;
  }
  return key;
}

bool cacheable(const std::vector<Result>& results) {
  for (const Result& r : results) {
    // Equiv: an inconclusive that exists only because the transient
    // cex budget ran out must not shadow a future, better-funded run.
    if (r.stats.cex_budget_tripped) return false;
    if (!r.stats.have_explore) continue;  // lint/equiv are deterministic
    const std::string& l = r.stats.limit_hit;
    if (l == "deadline" || l == "mem-limit" || l == "interrupted") {
      return false;
    }
  }
  return !results.empty();
}

VerdictCache::VerdictCache() : VerdictCache(Options{}) {}

VerdictCache::VerdictCache(Options opts) : opts_(std::move(opts)) {}

std::string VerdictCache::path_for(const CacheKey& key) const {
  return opts_.dir + "/" + key.hex() + ".json";
}

std::optional<VerdictCache::Entry> VerdictCache::get(const CacheKey& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);  // refresh recency
    ++stats_.hits;
    return it->second->entry;
  }
  if (!opts_.dir.empty()) {
    // Fall back to the persistence directory (a pre-restart verdict).
    // Read failures — including injected ones — degrade to a miss.
    const std::string text = support::read_file_or_empty(path_for(key));
    // Layout written by put(): {"exit_code":N,"results":<raw>}
    const std::string tag = "\"results\":";
    const std::size_t at = text.find(tag);
    if (at != std::string::npos && !text.empty() && text.back() == '}') {
      try {
        const JsonValue doc = json_parse(text);
        Entry e;
        e.exit_code = static_cast<int>(doc.u64_or("exit_code", 0));
        e.results_json =
            text.substr(at + tag.size(), text.size() - at - tag.size() - 1);
        lru_.push_front(Node{key, e});
        index_[key] = lru_.begin();
        resident_bytes_ += e.results_json.size();
        evict_locked();
        ++stats_.hits;
        ++stats_.disk_hits;
        return e;
      } catch (const JsonError&) {
        // Corrupt file (e.g. a torn write from a pre-rename crash
        // path): treat as a miss; put() will rewrite it.
      }
    }
  }
  ++stats_.misses;
  return std::nullopt;
}

void VerdictCache::put(const CacheKey& key, Entry entry) {
  std::lock_guard<std::mutex> lock(mu_);
  if (index_.find(key) != index_.end()) return;  // idempotent
  if (!opts_.dir.empty()) {
    // Atomic publish: never let a reader (or a crash) observe a torn
    // entry.  Persistence is best-effort — a failed write costs only
    // restart warm-up — but failures are counted, not silent.
    std::string bytes = "{\"exit_code\":" + std::to_string(entry.exit_code) +
                        ",\"results\":" + entry.results_json + "}";
    if (!support::try_write_file_atomic(path_for(key), bytes,
                                        /*sync=*/false)) {
      ++stats_.persist_failures;
    }
  }
  resident_bytes_ += entry.results_json.size();
  lru_.push_front(Node{key, std::move(entry)});
  index_[key] = lru_.begin();
  ++stats_.insertions;
  evict_locked();
}

void VerdictCache::evict_locked() {
  while (!lru_.empty() && (lru_.size() > opts_.max_entries ||
                           resident_bytes_ > opts_.max_bytes)) {
    const Node& victim = lru_.back();
    resident_bytes_ -= victim.entry.results_json.size();
    // The persisted copy goes with it, so the directory stays bounded
    // too.  Best effort: a file left behind is still a correct verdict.
    if (!opts_.dir.empty()) std::remove(path_for(victim.key).c_str());
    index_.erase(victim.key);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

std::size_t VerdictCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

VerdictCache::Stats VerdictCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

std::optional<CacheKey> KeyMemo::find(std::string_view text) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(text);
  if (it == index_.end()) return std::nullopt;
  lru_.splice(lru_.begin(), lru_, it->second);
  ++hits_;
  return it->second->key;
}

void KeyMemo::put(std::string_view text, const CacheKey& key) {
  if (text.size() > max_bytes_ || max_entries_ == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (index_.find(text) != index_.end()) return;
  lru_.push_front(Node{std::string(text), key});
  index_.emplace(lru_.front().text, lru_.begin());
  bytes_ += text.size();
  while (lru_.size() > max_entries_ || bytes_ > max_bytes_) {
    bytes_ -= lru_.back().text.size();
    index_.erase(lru_.back().text);
    lru_.pop_back();
  }
}

KeyMemo::Stats KeyMemo::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Stats{hits_, lru_.size(), bytes_};
}

}  // namespace cac::front
