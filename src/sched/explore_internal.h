// Pieces the serial DFS (explore.cc) shares with the distributed
// coordinator and workers (src/dist).  Internal: not part of the public
// surface.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "sched/checkpoint.h"
#include "sched/dfs.h"
#include "sem/step.h"

namespace cac::sched::internal {

/// The one state classification: Terminal; Stuck (no eligible choice
/// after POR; the reason goes to `stuck_reason`); Unexpanded when
/// `depth` has reached opts.max_depth; else Expanded, with the choices
/// to follow in `eligible`, in order.
NodeKind classify(const ptx::Program& prg, const ExploreOptions& opts,
                  const sem::Grid& g, std::uint64_t depth,
                  std::vector<sem::Choice>& eligible,
                  std::string& stuck_reason);

/// Resident set size minus the bytes the store has spilled to disk:
/// spilled segments are reclaimable page cache, and counting them would
/// let a tripped memory watermark never clear by spilling.
std::uint64_t working_set_bytes(std::uint64_t spilled_bytes);

/// The graceful-stop budgets of ExploreOptions, checked the same way by
/// every engine.  The clock starts at construction.
class Budget {
 public:
  explicit Budget(const ExploreOptions& opts)
      : opts_(opts), start_(std::chrono::steady_clock::now()) {}

  /// Is any budget set?  Engines skip polling otherwise.
  [[nodiscard]] bool any() const {
    return opts_.stop_flag != nullptr || opts_.stop_after_states != 0 ||
           opts_.deadline_ms != 0 || opts_.mem_limit_bytes != 0;
  }

  /// The budget that has tripped, or None.  `states` is the number of
  /// distinct states so far.  The stop flag and the state count are
  /// always checked; the clock and the memory watermark only when
  /// `poll_slow` (reading /proc costs microseconds).  `working_set` is
  /// called for the memory watermark only.
  template <typename WorkingSet>
  [[nodiscard]] ExploreResult::Limit tripped(std::uint64_t states,
                                             bool poll_slow,
                                             WorkingSet&& working_set) const {
    if (opts_.stop_flag != nullptr &&
        opts_.stop_flag->load(std::memory_order_relaxed)) {
      return ExploreResult::Limit::Interrupted;
    }
    if (opts_.stop_after_states != 0 && states >= opts_.stop_after_states) {
      return ExploreResult::Limit::Interrupted;
    }
    if (!poll_slow) return ExploreResult::Limit::None;
    if (opts_.deadline_ms != 0 &&
        std::chrono::steady_clock::now() - start_ >=
            std::chrono::milliseconds(opts_.deadline_ms)) {
      return ExploreResult::Limit::Deadline;
    }
    if (opts_.mem_limit_bytes != 0 &&
        working_set() >= opts_.mem_limit_bytes) {
      return ExploreResult::Limit::MemLimit;
    }
    return ExploreResult::Limit::None;
  }

 private:
  const ExploreOptions& opts_;
  std::chrono::steady_clock::time_point start_;
};

/// Checkpoint outcomes an engine reports in its ExploreResult, and the
/// one write-failure policy: persistence never decides a verdict, so a
/// failed write is counted and logged and the run goes on.  Only
/// resumability is at stake.
struct CheckpointTally {
  bool written = false;
  std::uint64_t failures = 0;

  /// Run `write`; returns false (after counting and logging) when it
  /// throws CheckpointError.
  template <typename Write>
  bool attempt(Write&& write) {
    try {
      write();
      written = true;
      return true;
    } catch (const CheckpointError& e) {
      ++failures;
      warn(e);
      return false;
    }
  }

  void report(ExploreResult& r) const {
    r.checkpointed = written;
    r.checkpoint_write_failures = failures;
  }

 private:
  static void warn(const CheckpointError& e);
};

}  // namespace cac::sched::internal
