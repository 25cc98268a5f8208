// The memory state µ of the formal model (paper §III-2, Table I):
//
//   µ : (ss x addr) -> (byte x B)
//
// Every byte carries a *valid bit* — false means the value "could
// possibly still be in flight", like a cache valid bit.  The paper's
// valid-bit discipline, reproduced here as mechanism (policy lives in
// the semantics kernel, src/sem/step.cc):
//
//  * at launch only Global and Const bytes written by the host are
//    valid;
//  * ordinary stores to Global leave the byte invalid — the hardware
//    does not guarantee inter-thread synchronization of global memory
//    (atomics excepted);
//  * stores to Shared are invalid until the whole block reaches a
//    barrier, at which point commit_shared() flips every Shared valid
//    bit to true (Fig. 3's lift-bar rule).
//
// Representation: each state space is a refcounted, copy-on-write
// *bank* — a contiguous byte array plus a packed valid-bit bitmap (one
// bit per byte, 64 bits per word).  Shared memory is one bank *per
// thread block* (it is block-private, paper §III-2), so a store by one
// block copies only that block's bank.  Copying a Memory copies four
// shared_ptrs; a mutator clones just the bank it touches (clone-on-
// write), so sibling machine states in the schedule explorer share
// every bank they have not diverged on.  The interning state store
// (sched/state_store.h) builds on the same mechanism: banks are
// content-addressed via their memoized structural hash and deduplicated
// across the whole visited set.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ptx/dtype.h"
#include "support/hash.h"

namespace cac::support {
class BinWriter;
class BinReader;
}  // namespace cac::support

namespace cac::mem {

using ptx::Space;

/// Byte sizes of each state space for a launch.  `shared` is the size
/// of one block's Shared bank; every block gets its own bank (set
/// `shared_banks` to the number of blocks), because Shared memory is
/// private to a thread block (paper §III-2).
struct MemSizes {
  std::uint64_t global = 0;
  std::uint64_t constant = 0;
  std::uint64_t shared = 0;
  std::uint64_t param = 0;
  std::uint32_t shared_banks = 1;

  [[nodiscard]] std::uint64_t of(Space ss) const;
};

/// One memory byte with its valid bit — the (byte x B) pair of Table I.
struct Cell {
  std::uint8_t byte = 0;
  bool valid = false;
  friend bool operator==(const Cell&, const Cell&) = default;
};

class Memory {
 public:
  /// One state space (or one block's Shared slice): contiguous data
  /// bytes plus a packed valid bitmap (bit i of valid[i/64] is byte i's
  /// valid bit).  Bits past `bytes.size()` in the last word are kept
  /// zero so that comparison is exact.  Banks are immutable once shared
  /// (copy-on-write); the structural hash is memoized thread-safely so
  /// a bank shared across explorer threads is hashed at most once.
  struct Bank {
    std::vector<std::uint8_t> bytes;
    std::vector<std::uint64_t> valid;

    explicit Bank(std::uint64_t n = 0)
        : bytes(n, 0), valid((n + 63) / 64, 0) {}

    [[nodiscard]] bool valid_bit(std::uint64_t i) const {
      return (valid[i >> 6] >> (i & 63)) & 1u;
    }
    void set_valid_bit(std::uint64_t i, bool v) {
      const std::uint64_t mask = 1ull << (i & 63);
      if (v) {
        valid[i >> 6] |= mask;
      } else {
        valid[i >> 6] &= ~mask;
      }
    }

    /// Content-addressing hash for bank interning; memoized.
    [[nodiscard]] std::uint64_t hash() const;
    void invalidate_hash() const { hash_.invalidate(); }

    /// Heap footprint of this bank (stats/accounting).
    [[nodiscard]] std::uint64_t deep_bytes() const {
      return sizeof(Bank) + bytes.capacity() +
             valid.capacity() * sizeof(std::uint64_t);
    }

    friend bool operator==(const Bank& a, const Bank& b) {
      return a.bytes == b.bytes && a.valid == b.valid;
    }

    /// Checkpoint codec (sched/checkpoint.h).  decode throws
    /// support::BinError on malformed input (truncation, bitmap size
    /// mismatch, nonzero tail bits in the last valid word).
    void encode(support::BinWriter& w) const;
    static Bank decode(support::BinReader& r);

   private:
    SharedHashCache hash_;  // excluded from operator== by construction
  };

  /// Refcounted immutable bank handle — the sharing currency between
  /// Memory values and the interning state store.
  using BankRef = std::shared_ptr<const Bank>;

  Memory();
  explicit Memory(const MemSizes& sizes);

  /// Rebuild a Memory from interned bank handles (StateStore
  /// materialization).  `shared` holds one bank per block.
  static Memory from_banks(BankRef global, BankRef constant,
                           std::vector<BankRef> shared, BankRef param,
                           std::uint64_t shared_per_block);

  [[nodiscard]] std::uint64_t size(Space ss) const;
  [[nodiscard]] bool in_bounds(Space ss, std::uint64_t addr,
                               std::uint32_t len) const;

  /// Raw cell access.  Callers must bounds-check first (the semantics
  /// kernel turns out-of-bounds accesses into fault events rather than
  /// crashing); violating that is a programming error and throws.
  [[nodiscard]] Cell cell(Space ss, std::uint64_t addr) const;

  /// Little-endian load of `len` bytes (1/2/4/8).
  [[nodiscard]] std::uint64_t load(Space ss, std::uint64_t addr,
                                   std::uint32_t len) const;

  /// True iff every byte of the range has its valid bit set.
  [[nodiscard]] bool all_valid(Space ss, std::uint64_t addr,
                               std::uint32_t len) const;

  /// Little-endian store of `len` bytes with an explicit valid bit.
  /// The valid-bit *policy* (invalid for plain Global/Shared stores,
  /// valid for atomics and launch-time initialization) is chosen by the
  /// caller; see the file comment.
  void store(Space ss, std::uint64_t addr, std::uint32_t len,
             std::uint64_t value, bool valid);

  /// Launch-time initialization: bytes arrive valid.
  void write_init(Space ss, std::uint64_t addr, const void* data,
                  std::size_t len);

  /// Typed launch-time helpers.
  void init_u32(Space ss, std::uint64_t addr, std::uint32_t v);
  void init_u64(Space ss, std::uint64_t addr, std::uint64_t v);

  /// Fig. 3 lift-bar: commit one block's Shared bank (valid := true).
  void commit_shared(std::uint32_t block);

  /// Shared-space addressing: block-local addresses are offset into the
  /// block's private bank.  Returns the base of that bank within the
  /// flat Shared space; shared_size() is the per-block bank size.
  [[nodiscard]] std::uint64_t shared_base(std::uint32_t block) const {
    return static_cast<std::uint64_t>(block) * shared_per_block_;
  }
  [[nodiscard]] std::uint64_t shared_size() const {
    return shared_per_block_;
  }

  /// Mark every byte of a space valid; used by checkers when stating
  /// hypotheses about the final state.
  void set_all_valid(Space ss, bool valid);

  // --- bank-sharing hooks (interned state storage) -------------------

  /// Handle to a single-bank space (Global/Const/Param; Shared is
  /// per-block, use shared_bank_refs()).
  [[nodiscard]] const BankRef& bank_ref(Space ss) const;
  /// One immutable bank per block.
  [[nodiscard]] const std::vector<BankRef>& shared_bank_refs() const {
    return shared_;
  }

  friend bool operator==(const Memory& a, const Memory& b);

  /// Order- and representation-independent state hash (for schedule
  /// exploration memoization).  Memoized at two levels: per bank
  /// (shared across every Memory holding the bank) and per Memory.
  [[nodiscard]] std::uint64_t hash() const;

  /// Human-readable hex dump of a range (debugging aid).
  [[nodiscard]] std::string dump(Space ss, std::uint64_t addr,
                                 std::uint32_t len) const;

 private:
  Memory(BankRef global, BankRef constant, std::vector<BankRef> shared,
         BankRef param, std::uint64_t shared_per_block);

  [[nodiscard]] const Bank& ro(Space ss) const;          // non-Shared
  [[nodiscard]] const Bank& shared_ro(std::uint64_t addr,
                                      std::uint64_t& off) const;
  /// Clone-on-write access: clones the bank if it is shared, and
  /// invalidates its memoized hash (we are about to mutate it).
  [[nodiscard]] Bank& unique_bank(BankRef& slot);
  [[nodiscard]] Bank& mut(Space ss, std::uint64_t addr, std::uint64_t& off);

  [[nodiscard]] std::uint64_t shared_total() const {
    return shared_per_block_ * shared_.size();
  }
  /// Does [addr, addr+len) stay inside one Shared bank?
  [[nodiscard]] bool shared_single_bank(std::uint64_t addr,
                                        std::uint32_t len) const {
    return shared_per_block_ == 0 ||
           addr / shared_per_block_ == (addr + len - 1) / shared_per_block_;
  }

  BankRef global_;
  BankRef constant_;
  std::vector<BankRef> shared_;  // one bank per block
  BankRef param_;
  std::uint64_t shared_per_block_ = 0;
  HashCache hash_;  // excluded from operator== by construction
};

}  // namespace cac::mem
