// Thread blocks and grids (paper §III-9, §III-10): a block β is a set
// of warps; a grid γ is a set of blocks.  The machine state of the
// small-step semantics is a (grid, memory) pair.
//
// Warps are held like memory banks (mem::Memory::BankRef): as
// refcounted immutable handles, copied on write.  Copying a machine
// bumps one refcount per warp, and the state store shares the same
// objects with the machines it interns.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "mem/memory.h"
#include "sem/config.h"
#include "sem/warp.h"

namespace cac::sem {

/// Refcounted immutable warp handle, shared between machine copies and
/// the interning state store.  Make one with std::make_shared<Warp>,
/// never std::make_shared<const Warp>: unique_warp writes through a
/// handle it holds alone.
using WarpRef = std::shared_ptr<const Warp>;

/// The only way to get a mutable warp out of a machine: clones the warp
/// into `slot` unless the slot holds the sole reference.  The twin of
/// mem::Memory::unique_bank; every Warp mutator invalidates the
/// memoized hash itself.
Warp& unique_warp(WarpRef& slot);

struct Block {
  std::vector<WarpRef> warps;

  /// Structural: equal handles short-cut the value compare.
  friend bool operator==(const Block& a, const Block& b);
  void mix_hash(Hasher& h) const;
};

struct Grid {
  std::vector<Block> blocks;

  friend bool operator==(const Grid&, const Grid&) = default;
  void mix_hash(Hasher& h) const;
  [[nodiscard]] std::uint64_t hash() const;
};

/// The full machine configuration <gamma, mu> of Fig. 3.
///
/// Copying a Machine shares its warps and banks; a copy is never written
/// through to its source.  Direct writes to the grid go through
/// unique_warp, as the semantics kernel's do.
///
/// hash() is memoized: by design the only mutator of a Machine is the
/// semantics kernel (sem::apply_choice, src/sem/step.cc), which
/// invalidates the cache on every transition; Memory additionally
/// tracks its own cache through its mutators.  Code that mutates
/// `grid` or `memory` directly — tests, hypothetical checkers — must
/// call invalidate_hash() afterwards or hash() may return a stale
/// value (operator== is unaffected; it compares real state only).
struct Machine {
  Grid grid;
  mem::Memory memory;
  HashCache hash_cache;  // excluded from operator==

  Machine() = default;
  Machine(Grid g, mem::Memory m)
      : grid(std::move(g)), memory(std::move(m)) {}

  friend bool operator==(const Machine& a, const Machine& b) {
    return a.grid == b.grid && a.memory == b.memory;
  }
  [[nodiscard]] std::uint64_t hash() const;
  void invalidate_hash() const { hash_cache.invalidate(); }
};

/// The paper's `generate_grid kc`: spawn grid_size blocks of block_size
/// threads, grouped into warps of kc.warp_size, all at pc 0 with empty
/// register files.
Grid generate_grid(const KernelConfig& kc);

std::string to_string(const Grid& g);

}  // namespace cac::sem
