#include "check/transparency.h"

#include "sched/scheduler.h"

namespace cac::check {

TransparencyResult check_scheduler_transparency(
    const ptx::Program& prg, const sem::KernelConfig& kc,
    const sem::Machine& initial, const sched::ExploreResult& schedules,
    const sched::ExploreOptions& opts) {
  TransparencyResult result;

  // The deterministic witness run.
  sem::Machine det = initial;
  sched::FirstChoiceScheduler first;
  const sched::RunResult dr =
      sched::run(prg, kc, det, first, opts.max_depth, opts.step_opts);
  result.det_steps = dr.steps;
  if (!dr.terminated()) {
    result.detail = "deterministic schedule did not terminate: " +
                    to_string(dr.status) +
                    (dr.message.empty() ? "" : " (" + dr.message + ")");
    return result;
  }

  // Every schedule.
  result.schedules_states = schedules.states_visited;
  if (!schedules.violations.empty()) {
    const auto& v = schedules.violations.front();
    result.detail = "a schedule fails: " + to_string(v.kind) + ": " +
                    v.message;
    return result;
  }
  if (!schedules.exhaustive) {
    result.detail = "exploration limits hit; transparency undecided";
    return result;
  }
  if (schedules.final_ids.size() != 1) {
    result.detail = "schedule-dependent result: " +
                    std::to_string(schedules.final_ids.size()) +
                    " distinct terminal states";
    return result;
  }
  const sem::Machine sole =
      schedules.store->materialize(schedules.final_ids.front());
  if (!(sole == det)) {
    result.detail =
        "nondeterministic terminal state differs from the deterministic one";
    return result;
  }
  result.holds = true;
  result.detail = "deterministic result is the unique result of all " +
                  std::to_string(schedules.states_visited) +
                  "-state schedules";
  return result;
}

TransparencyResult check_scheduler_transparency(
    const ptx::Program& prg, const sem::KernelConfig& kc,
    const sem::Machine& initial, const sched::ExploreOptions& opts) {
  return check_scheduler_transparency(
      prg, kc, initial, sched::explore(prg, kc, initial, opts), opts);
}

}  // namespace cac::check
