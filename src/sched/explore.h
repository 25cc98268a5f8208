// Exhaustive schedule exploration — the executable analogue of the
// paper's universal quantification over schedules.
//
// The paper's theorems ("for every scheduler, ...") are proved in Coq
// by induction; with a finite configuration the same statement is a
// finite conjunction, and this module checks it by enumerating *every*
// reachable machine state under *every* eligible choice (Fig. 3's
// nondeterminism), with memoization on full machine states (no hash
// truncation — states are compared structurally, so a hash collision
// cannot fake a visit).
//
// On top of the state graph the explorer decides:
//  * universal termination (no stuck state, no fault, no cycle),
//  * schedule independence (all terminal states identical),
//  * min/max schedule length to termination.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sched/state_store.h"
#include "sem/step.h"

namespace cac::sched {

struct Checkpoint;  // sched/checkpoint.h

struct ExploreOptions {
  /// Abort a path longer than this many steps (guards against
  /// exploring unboundedly growing state, e.g. a counter loop).
  std::uint64_t max_depth = 1u << 16;
  /// Abort after visiting this many distinct states.
  std::uint64_t max_states = 1u << 20;
  sem::StepOptions step_opts;
  /// Stop at the first stuck/fault/cycle instead of cataloguing all.
  bool stop_at_first_violation = true;
  /// Persistent-set partial-order reduction: when some warp's next
  /// instruction is *register-local* (no memory access, no barrier —
  /// Bop/Top/Uop/Mov/Setp/Selp/Nop/Bra/PBra/Sync), that single step
  /// commutes with every step of every other warp and cannot disable
  /// any of them, so exploring it alone is a sound persistent set.
  /// Interleavings then branch only at Ld/St/Atom/Bar boundaries —
  /// often an exponential saving (see bench_ablation_por).  Verdicts
  /// on termination, stuck states, faults and *final memory* states
  /// are preserved; intermediate-state counts differ by construction.
  bool partial_order_reduction = false;
  /// Static-analysis independence oracle for the reduction above: pcs
  /// of Ld/St/Atom instructions proven disjoint from every same-space
  /// access in the program (analysis::independent_access_pcs).  When a
  /// warp's next instruction is one of these, its step commutes with
  /// every other warp's step exactly like a register-local one, so it
  /// too is explored as a singleton persistent set.  Sorted ascending;
  /// only consulted when partial_order_reduction is on.  Structural:
  /// checkpoints persist it and resume requires an identical list.
  std::vector<std::uint32_t> por_independent_pcs;
  /// Ignored: nothing in the explorer reads it, and explore() runs the
  /// serial DFS whatever it holds.  It remains only because the
  /// cacbench/ harness still assigns it, and goes when those
  /// assignments do.
  std::uint32_t num_threads = 0;

  // --- resource budgets & crash safety (docs/explorer.md) ------------
  // Budgets stop a run *gracefully*: a final checkpoint is written when
  // checkpoint_path is set, and limit_hit names the budget that
  // tripped.  None of these fields affects the verdict a completed run
  // produces, so they are not part of the checkpoint's
  // resume-compatibility fingerprint.

  /// Wall-clock deadline in milliseconds (0 = unlimited).  Trips as
  /// Limit::Deadline.
  std::uint64_t deadline_ms = 0;
  /// Resident-set-size watermark in bytes (0 = unlimited).  Trips as
  /// Limit::MemLimit — a graceful stop with a checkpoint instead of an
  /// OOM kill.  Measured via /proc (no-op where unavailable).
  std::uint64_t mem_limit_bytes = 0;
  /// When nonempty, checkpoints are written here: periodically (see
  /// checkpoint_every_states) and on any budget/signal stop.
  std::string checkpoint_path;
  /// Write a periodic checkpoint each time this many further distinct
  /// states have been visited (0 = only on stop).  Ignored unless
  /// checkpoint_path is set.
  std::uint64_t checkpoint_every_states = 0;
  /// Cooperative cancellation: when non-null and it becomes true, the
  /// run stops gracefully as Limit::Interrupted (cacval points this at
  /// its SIGINT/SIGTERM flag).
  const std::atomic<bool>* stop_flag = nullptr;
  /// Test seam for the fault-injection harness: stop gracefully (as
  /// Limit::Interrupted) once this many distinct states have been
  /// visited (0 = never) — a deterministic kill point.
  std::uint64_t stop_after_states = 0;

  // --- progress streaming (docs/serve.md) ----------------------------

  /// A point-in-time snapshot of the run handed to progress_fn.
  struct Progress {
    std::uint64_t states_visited = 0;
    std::uint64_t transitions = 0;
    /// Discovered-but-unexpanded work: the DFS stack depth.
    std::uint64_t frontier = 0;
  };
  /// When set, called from the DFS's cut point every
  /// progress_every_states further distinct states (the distributed
  /// engine reports completion only).  Transient: never checkpointed,
  /// never part of resume compatibility, and must not mutate the
  /// exploration.  `cacval serve` streams these to
  /// clients as progress events.
  std::function<void(const Progress&)> progress_fn;
  /// Cadence for progress_fn (0 disables even when the hook is set).
  std::uint64_t progress_every_states = 0;

  // --- tiered state store (docs/explorer.md) -------------------------
  // Like the budgets above these are transient resource policy: they
  // decide where interned bytes live (RAM object / RAM encoding / spill
  // file), never which states exist or what verdict comes out, so they
  // are not part of the checkpoint's resume-compatibility fingerprint
  // and a resumed run may use different values.

  /// Directory for the store's spill segment file (created unlinked —
  /// a crash cannot leak disk).  Empty disables the cold tier.
  std::string store_spill_dir;
  /// Resident-byte budget for the interned store; above it, cold
  /// fragments are demoted (encoded, then spilled when a spill dir is
  /// set).  0 keeps everything hot — the pre-tiering behaviour.
  std::uint64_t store_resident_budget_bytes = 0;
};

/// The StoreOptions an engine derives from ExploreOptions (the serial
/// DFS and the distributed workers map the knobs the same way, so
/// tiering behaves identically whichever engine runs).
[[nodiscard]] inline StoreOptions store_options(const ExploreOptions& o) {
  StoreOptions so;
  so.spill_dir = o.store_spill_dir;
  so.resident_budget_bytes = o.store_resident_budget_bytes;
  return so;
}

struct Violation {
  enum class Kind : std::uint8_t { Stuck, Fault, Cycle, DepthExceeded };
  Kind kind = Kind::Stuck;
  std::string message;
  /// The schedule that reaches the violating state — a replayable
  /// counterexample (see check/trace.h).
  std::vector<sem::Choice> trace;
};

struct ExploreResult {
  /// True iff every reachable state was expanded within the limits —
  /// only then do the "for all schedules" verdicts below constitute a
  /// complete finite-configuration proof.
  bool exhaustive = false;

  /// Which exploration limit tripped first when `exhaustive` is false
  /// for limit reasons (None when the run was exhaustive or cut short
  /// only by stop_at_first_violation).  MaxStates/MaxDepth are
  /// structural (they persist into checkpoints: the uninterrupted run
  /// would trip them too); Deadline/MemLimit/Interrupted are transient
  /// stop reasons a resumed run does not inherit.
  enum class Limit : std::uint8_t {
    None,
    MaxStates,
    MaxDepth,
    Deadline,
    MemLimit,
    Interrupted,
  };
  Limit limit_hit = Limit::None;

  std::uint64_t states_visited = 0;
  std::uint64_t transitions = 0;

  /// True when this run wrote at least one checkpoint (periodic or on
  /// stop) to ExploreOptions::checkpoint_path.
  bool checkpointed = false;

  /// Checkpoint writes that failed (ENOSPC/EIO).  A failed periodic
  /// write is logged and retried at the next cadence instead of
  /// aborting the run — the verdict never depends on checkpoint
  /// persistence, only resumability does.
  std::uint64_t checkpoint_write_failures = 0;

  /// Every visited state lives interned in this store; `final_ids` and
  /// any StateId derived from this exploration resolve against it.
  /// Shared so results can outlive the engine and be copied cheaply.
  std::shared_ptr<const StateStore> store;

  /// Snapshot of the store's byte/tier accounting at the end of the
  /// run (resident vs spilled bytes, evictions, delta fragments).  For
  /// distributed runs this sums the workers' stores, so it reflects
  /// where the exploration's memory actually went.
  StateStore::Stats store_stats;

  /// Distinct terminated machine states (DFS first-visit order).  A
  /// singleton means the computation is schedule-independent.
  /// Materialize one with `store->materialize(id)`.
  std::vector<StateId> final_ids;

  /// Shortest / longest schedule reaching termination (path lengths).
  std::uint64_t min_steps_to_termination = 0;
  std::uint64_t max_steps_to_termination = 0;

  std::vector<Violation> violations;

  [[nodiscard]] bool all_schedules_terminate() const {
    return exhaustive && violations.empty() && !final_ids.empty();
  }
  [[nodiscard]] bool schedule_independent() const {
    return exhaustive && violations.empty() && final_ids.size() == 1;
  }
};

/// Explore from `initial`, or — when `resume` is non-null — continue
/// the checkpointed run (the initial machine is then ignored; the
/// checkpoint carries the DFS stack).  Resume requires matching
/// program/config fingerprints and structural options; mismatches
/// throw CheckpointError.  The resumed run reaches a verdict
/// byte-identical to an uninterrupted one.
ExploreResult explore(const ptx::Program& prg, const sem::KernelConfig& kc,
                      const sem::Machine& initial,
                      const ExploreOptions& opts = {},
                      const Checkpoint* resume = nullptr);

std::string to_string(Violation::Kind k);
std::string to_string(ExploreResult::Limit l);

}  // namespace cac::sched
