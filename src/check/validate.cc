#include "check/validate.h"

#include "sched/scheduler.h"

namespace cac::check {

bool ValidationReport::all_passed() const {
  bool ok = model.proved();
  if (options_used.check_races) ok = ok && !races.racy();
  if (options_used.check_transparency) ok = ok && transparency.holds;
  if (options_used.check_lane_order) ok = ok && lane_order.independent;
  return ok;
}

std::string ValidationReport::text() const {
  std::string out;
  auto line = [&](const char* name, bool pass, const std::string& detail) {
    out += std::string(pass ? "[PASS] " : "[FAIL] ") + name + ": " + detail +
           "\n";
  };
  if (options_used.collect_profile) {
    out += "--- profile (deterministic schedule) ---\n" + profile.table();
  }
  if (options_used.check_races) {
    line("race-freedom", !races.racy(), races.summary());
  }
  line("model-check", model.proved(),
       to_string(model.kind) + ": " + model.detail);
  if (options_used.check_transparency) {
    line("scheduler-transparency", transparency.holds, transparency.detail);
  }
  if (options_used.check_lane_order) {
    line("lane-order-independence", lane_order.independent,
         lane_order.detail);
  }
  out += all_passed() ? "VERDICT: validated\n" : "VERDICT: NOT validated\n";
  return out;
}

ValidationReport validate(const ptx::Program& prg,
                          const sem::KernelConfig& kc,
                          const sem::Machine& initial, const Spec& post,
                          const ValidateOptions& opts) {
  ValidationReport report;
  report.options_used = opts;

  if (opts.collect_profile) {
    sem::Machine m = initial;
    sched::FirstChoiceScheduler s;
    report.profile =
        profile_run(prg, kc, m, s, opts.model.explore.max_depth);
  }
  if (opts.check_races) {
    sem::Machine m = initial;
    sched::RoundRobinScheduler s;
    RaceOptions ropts;
    ropts.max_steps = opts.model.explore.max_depth;
    report.races = detect_races(prg, kc, m, s, ropts);
  }
  report.model = prove_total(prg, kc, initial, post, opts.model);
  if (opts.check_transparency) {
    report.transparency = check_scheduler_transparency(
        prg, kc, initial, report.model.exploration, opts.model.explore);
  }
  if (opts.check_lane_order) {
    report.lane_order =
        check_lane_order_independence(prg, kc, initial, opts.lane_orders);
  }
  return report;
}

}  // namespace cac::check
