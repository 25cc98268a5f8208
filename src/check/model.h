// The model checker: finite-configuration proofs of the paper's
// theorem shapes.
//
// The paper's Listing 3 proves
//
//   forall g' mu', n_apply 19 (grid_t add_vector kc) (g,mu) (g',mu')
//                  -> terminated add_vector g'
//
// i.e. *every* 19-step schedule ends in a terminated grid; partial
// correctness adds a predicate over mu'.  For a concrete kc these are
// statements about a finite transition system, so exhaustive
// exploration decides them.  `prove_total` checks:
//
//   1. every schedule terminates (no stuck state, fault, or cycle),
//   2. every terminal state satisfies the postcondition,
//   3. optionally: all schedules reach the *same* terminal state and/or
//      take exactly the expected number of steps (the paper's 19).
//
// The verdict carries a replayable counterexample trace on refutation;
// the trace can be independently re-validated against the trusted
// kernel with check/trace.h, so a bug in the explorer cannot produce a
// false "Refuted" either.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "check/spec.h"
#include "sched/explore.h"

namespace cac::check {

struct ModelCheckOptions {
  sched::ExploreOptions explore;
  /// Require all terminal states to be identical (schedule
  /// independence) in addition to the postcondition.
  bool require_schedule_independence = false;
  /// If nonzero, require every terminating schedule to take exactly
  /// this many grid steps (the paper's n_apply bound).
  std::uint64_t expect_exact_steps = 0;
  /// Resume exploration from a checkpoint (sched/checkpoint.h) written
  /// by an earlier budget-stopped or interrupted run.  Not owned; must
  /// outlive the call.  The resumed run must use the same program,
  /// kernel configuration, and exploration policy.
  const sched::Checkpoint* resume = nullptr;
  /// When set, called instead of sched::explore with the same
  /// arguments, and must return what sched::explore would: cacbench
  /// wraps sched::explore in it to count and time explorations.
  /// `resume` is ignored then.
  using explorer_type = std::function<sched::ExploreResult(
      const ptx::Program&, const sem::KernelConfig&, const sem::Machine&,
      const sched::ExploreOptions&)>;
  explorer_type explorer;
};

struct Verdict {
  enum class Kind : std::uint8_t {
    Proved,   // exhaustively checked, no violation
    Refuted,  // a concrete counterexample schedule exists
    Unknown,  // exploration limits were hit
  };
  Kind kind = Verdict::Kind::Unknown;
  std::string detail;
  /// Schedule reaching the violation (Refuted only); replayable via
  /// check/trace.h.
  std::vector<sem::Choice> counterexample;
  /// Exploration statistics (states, transitions, step bounds).
  sched::ExploreResult exploration;

  [[nodiscard]] bool proved() const { return kind == Kind::Proved; }
};

/// Prove termination + postcondition over all schedules (total
/// correctness, paper §IV).
Verdict prove_total(const ptx::Program& prg, const sem::KernelConfig& kc,
                    const sem::Machine& initial, const Spec& post,
                    const ModelCheckOptions& opts = {});

/// Prove termination only (the paper's add_vector_terminates).
Verdict prove_termination(const ptx::Program& prg,
                          const sem::KernelConfig& kc,
                          const sem::Machine& initial,
                          const ModelCheckOptions& opts = {});

std::string to_string(Verdict::Kind k);

}  // namespace cac::check
