// The trusted semantics kernel: the derivation rules of Figs. 1 and 3.
//
// Everything in this header is the C++ analogue of the paper's ~350
// SLOC Coq model — the *only* code that may transform machine states.
// The checking layer (src/check), the schedulers (src/sched) and the
// symbolic engine (src/sym) are untrusted: whatever they claim must be
// replayable through these functions (see check/trace.h), mirroring the
// paper's argument that proof tactics add nothing to the TCB.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ptx/program.h"
#include "sem/state.h"

namespace cac::sem {

/// Order in which the per-thread memory effects of one warp instruction
/// are applied.  Register updates are thread-local, so only St/Atom can
/// observe this order — which is exactly the warp-internal
/// nondeterminism the paper's nd_map theorem quantifies over (§IV).
struct ThreadOrder {
  enum class Kind : std::uint8_t { Ascending, Descending, Permuted };
  Kind kind = Kind::Ascending;
  /// For Permuted: a permutation of [0, #threads) applied to the
  /// thread vector's order.  Shorter permutations fall back to
  /// ascending for the remaining threads.
  std::vector<std::uint32_t> perm;
};

struct StepOptions {
  ThreadOrder order;
  /// Record every Ld/St/Atom access in StepEvents::accesses (used by
  /// the race detector, check/race.h).  Off by default: logging every
  /// lane of every memory instruction is costly.
  bool log_accesses = false;
};

/// Diagnostics collected while a rule fires.  They never influence the
/// transition itself; the validation layer decides what they mean.
struct StepEvents {
  struct InvalidRead {  // load touched a byte whose valid bit is false
    ptx::Space space;
    std::uint64_t addr;
    std::uint32_t len;
    std::uint32_t tid;
  };
  struct StoreConflict {  // two lanes of one St wrote different bytes
    ptx::Space space;     // to the same address
    std::uint64_t addr;
    std::uint32_t tid_a, tid_b;
  };
  struct UninitRead {  // operand read from a never-written register
    std::uint32_t tid;
    ptx::Reg reg;
  };
  /// One lane's memory access (logged when StepOptions::log_accesses).
  /// `addr` is the effective flat address (Shared bank base included).
  struct Access {
    ptx::Space space;
    std::uint64_t addr;
    std::uint32_t len;
    std::uint32_t tid;
    bool write;
    bool atomic;
  };
  std::vector<InvalidRead> invalid_reads;
  std::vector<StoreConflict> store_conflicts;
  std::vector<UninitRead> uninit_reads;
  std::vector<Access> accesses;

  void clear();
  [[nodiscard]] bool empty() const;
};

enum class StepStatus : std::uint8_t { Ok, Fault };

struct StepResult {
  StepStatus status = StepStatus::Ok;
  std::string fault;  // human-readable cause when status == Fault

  [[nodiscard]] bool ok() const { return status == StepStatus::Ok; }
};

/// Fig. 1: one warp small-step executing the instruction at w.pc()
/// (the left-most leaf).  Precondition (enforced by the block rule):
/// that instruction is neither Bar nor Exit.  `block` selects the
/// Shared bank.  On Fault the machine state must be discarded.
StepResult step_warp(const ptx::Program& prg, const KernelConfig& kc,
                     std::uint32_t block, Warp& w, mem::Memory& mu,
                     const StepOptions& opts = {},
                     StepEvents* events = nullptr);

/// What one warp contributes to the rules of Fig. 3.  It is a function
/// of the program and the warp's value alone, so an engine that interns
/// warps may compute it once per distinct warp (sched/explore.cc does).
struct WarpStatus {
  std::uint32_t pc = 0;  // ωpc, the left-most leaf's pc
  /// The state space of the one memory bank step_warp reads or writes
  /// besides the warp: that of the ld/st/atom at pc (for Shared, the
  /// stepped block's own bank); nullopt for every other instruction,
  /// which reads and writes the warp alone.
  std::optional<ptx::Space> space;
  /// execb's premise: the instruction at pc is neither Bar nor Exit.
  bool runnable = false;
  /// Uniform at Bar: this warp's part of lift-bar's premise.
  bool at_barrier = false;
  /// Uniform at Exit (warp_complete).
  bool complete = false;
};

WarpStatus warp_status(const ptx::Program& prg, const Warp& w);

/// warp_status(prg, w).space.  For a fixed program, KernelConfig and
/// StepOptions, a step's result is a function of the warp and that
/// bank (the state store's successor cache keys on both,
/// sched/state_store.h).
std::optional<ptx::Space> step_space(const ptx::Program& prg, const Warp& w);

/// A scheduler choice: one applicable derivation-rule instance of
/// Fig. 3.  The set of choices in a state is the source of scheduler
/// nondeterminism that proofs must quantify over (paper §III-9).
struct Choice {
  enum class Kind : std::uint8_t { ExecWarp, LiftBar };
  Kind kind = Kind::ExecWarp;
  std::uint32_t block = 0;
  std::uint32_t warp = 0;  // ExecWarp only

  friend bool operator==(const Choice&, const Choice&) = default;
};

/// Block `block`'s rule instances, from the statuses of its `warps`
/// warps (`status(w)` is warp w's), appended to `out` in the one order
/// every engine follows:
///  * ExecWarp(b,w)  — execb: each runnable warp, in order;
///  * LiftBar(b)     — lift-bar: last, when the block has warps and
///                     every one is uniform at a Bar instruction.
/// eligible_choices applies it to a grid; the explorer applies it to
/// statuses it caches per interned warp, so neither re-derives the rule.
template <typename StatusOf>
void append_block_choices(std::uint32_t block, std::uint32_t warps,
                          StatusOf&& status, std::vector<Choice>& out) {
  bool lift = warps != 0;
  for (std::uint32_t w = 0; w < warps; ++w) {
    const WarpStatus& s = status(w);
    if (s.runnable) out.push_back({Choice::Kind::ExecWarp, block, w});
    lift = lift && s.at_barrier;
  }
  if (lift) out.push_back({Choice::Kind::LiftBar, block, 0});
}

/// Every rule instance applicable in the current state, block by block
/// (append_block_choices).
std::vector<Choice> eligible_choices(const ptx::Program& prg, const Grid& g);

/// Apply one choice to the machine (Fig. 3 execb / lift-bar / execg).
StepResult apply_choice(const ptx::Program& prg, const KernelConfig& kc,
                        Machine& m, const Choice& c,
                        const StepOptions& opts = {},
                        StepEvents* events = nullptr);

// --- completion predicates (paper Listing 3) ---

/// A warp is complete when it is uniform and parked at Exit.  (The
/// paper's Listing 3 only inspects the left-most pc; requiring
/// uniformity is strictly sounder — a divergent warp whose left leaf
/// exited is a reconvergence bug, which is_stuck reports.)
bool warp_complete(const ptx::Program& prg, const Warp& w);
bool block_complete(const ptx::Program& prg, const Block& b);
bool terminated(const ptx::Program& prg, const Grid& g);

/// True when every warp of the block is uniform at Bar (lift-bar's
/// premise).
bool block_at_barrier(const ptx::Program& prg, const Block& b);

/// Stuck: not terminated, yet no rule applies.  This is exactly the
/// barrier-divergence deadlock class the paper discusses in §III-8.
bool is_stuck(const ptx::Program& prg, const Grid& g);

/// Human-readable explanation of why the grid is stuck (empty if not).
std::string stuck_reason(const ptx::Program& prg, const Grid& g);

std::string to_string(const Choice& c);

}  // namespace cac::sem
