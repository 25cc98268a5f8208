// The scheduler-transparency theorem (paper §I, §IV): correctness of a
// computation under a deterministic scheduler implies correctness
// under a nondeterministic scheduler.
//
// The paper's mechanized proof lets all later proofs consider only a
// sequential schedule.  For a finite configuration the theorem is the
// statement "the deterministic run's final state is the unique final
// state over all schedules", which this checker decides by running the
// deterministic scheduler and exhaustively exploring every schedule:
//
//   holds  <=>  exploration is exhaustive, violation-free, and
//               finals == { deterministic final }.
//
// When it holds, any property checked on the deterministic run is
// thereby proved for every scheduler — exactly how the paper uses the
// theorem to discharge nondeterminism from proofs.
#pragma once

#include <cstdint>
#include <string>

#include "sched/explore.h"

namespace cac::check {

struct TransparencyResult {
  bool holds = false;
  std::string detail;
  std::uint64_t schedules_states = 0;   // states in the schedule graph
  std::uint64_t det_steps = 0;          // deterministic schedule length
};

/// Decide the theorem against `schedules`, an exploration of every
/// schedule from `initial` under `opts` (validate passes its model
/// check's, so the state space is explored once).  Only the
/// deterministic run is performed here.
TransparencyResult check_scheduler_transparency(
    const ptx::Program& prg, const sem::KernelConfig& kc,
    const sem::Machine& initial, const sched::ExploreResult& schedules,
    const sched::ExploreOptions& opts);

/// One-call form: explore every schedule under `opts`, then decide.
TransparencyResult check_scheduler_transparency(
    const ptx::Program& prg, const sem::KernelConfig& kc,
    const sem::Machine& initial, const sched::ExploreOptions& opts = {});

}  // namespace cac::check
