// Hashing utilities shared by all state-space memoization code.
//
// The exhaustive schedule explorer (src/sched) and the model checker
// (src/check) memoize visited machine states by hash; these helpers keep
// the hash construction uniform (64-bit FNV-1a with a boost-style
// combiner) so that two independently computed hashes of equal states
// agree across modules.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace cac {

/// 64-bit FNV-1a over a byte range.
constexpr std::uint64_t fnv1a(const void* data, std::size_t n,
                              std::uint64_t seed = 0xcbf29ce484222325ull) {
  std::uint64_t h = seed;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

inline std::uint64_t fnv1a(std::string_view s,
                           std::uint64_t seed = 0xcbf29ce484222325ull) {
  return fnv1a(s.data(), s.size(), seed);
}

/// Mix a value into an accumulated hash (order-sensitive).
constexpr void hash_mix(std::uint64_t& h, std::uint64_t v) {
  // splitmix64-style finalizer on the incoming value, then combine.
  v += 0x9e3779b97f4a7c15ull;
  v = (v ^ (v >> 30)) * 0xbf58476d1ce4e5b9ull;
  v = (v ^ (v >> 27)) * 0x94d049bb133111ebull;
  v ^= v >> 31;
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
}

/// Accumulator with a fluent interface for hashing structured state.
class Hasher {
 public:
  Hasher& mix(std::uint64_t v) {
    hash_mix(h_, v);
    return *this;
  }
  Hasher& mix_bytes(const void* data, std::size_t n) {
    hash_mix(h_, fnv1a(data, n));
    return *this;
  }
  /// Bulk mix of a contiguous buffer, one 64-bit word at a time — ~8x
  /// fewer combiner rounds than per-byte mixing.  Used by the packed
  /// Memory representation, whose byte arrays and valid bitmaps are
  /// contiguous.  Distinct from mix_bytes (different stream layout), so
  /// callers must not mix(-and-match) the two over the same data.
  Hasher& mix_words(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      std::uint64_t w;
      __builtin_memcpy(&w, p + i, 8);
      hash_mix(h_, w);
    }
    if (i < n) {
      std::uint64_t w = 0;
      __builtin_memcpy(&w, p + i, n - i);
      hash_mix(h_, w);
    }
    return *this;
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0x243f6a8885a308d3ull;  // pi fractional bits
};

/// Memoization slot for an expensive structural hash.  The owning
/// object marks the slot dirty from every mutator; `get_or` recomputes
/// only when dirty.  Deliberately *excluded* from the owner's equality
/// (a stale-vs-fresh cache must not make equal states compare unequal),
/// so owners using `= default` comparisons must switch to an explicit
/// operator== over their real state.
///
/// Not internally synchronized: in concurrent code the owner must be
/// hashed by its owning thread before the object is published to other
/// threads.
class HashCache {
 public:
  template <typename Fn>
  std::uint64_t get_or(Fn&& compute) const {
    if (!valid_) {
      value_ = compute();
      valid_ = true;
    }
    return value_;
  }
  void invalidate() const { valid_ = false; }

 private:
  mutable std::uint64_t value_ = 0;
  mutable bool valid_ = false;
};

/// Memoization slot for the structural hash of an object that may be
/// *shared between threads* once it becomes immutable — the refcounted
/// copy-on-write memory banks (mem::Memory::Bank).  Unlike HashCache,
/// racing get_or calls are allowed: the hash is a pure function of the
/// immutable content, so concurrent fillers compute the same value and
/// the release/acquire pair makes whichever store wins visible.
/// Copies start empty: a bank is only ever copied to be mutated
/// (copy-on-write), so carrying the cache over would just go stale.
class SharedHashCache {
 public:
  SharedHashCache() = default;
  SharedHashCache(const SharedHashCache&) {}
  SharedHashCache& operator=(const SharedHashCache&) { return *this; }

  template <typename Fn>
  std::uint64_t get_or(Fn&& compute) const {
    if (valid_.load(std::memory_order_acquire)) {
      return value_.load(std::memory_order_relaxed);
    }
    const std::uint64_t v = compute();
    value_.store(v, std::memory_order_relaxed);
    valid_.store(true, std::memory_order_release);
    return v;
  }
  /// Only legal while the owner is still uniquely owned (pre-sharing).
  void invalidate() const {
    valid_.store(false, std::memory_order_relaxed);
  }

 private:
  mutable std::atomic<std::uint64_t> value_{0};
  mutable std::atomic<bool> valid_{false};
};

}  // namespace cac
