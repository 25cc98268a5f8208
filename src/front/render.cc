// Classic text rendering of a front::Result — byte-compatible with the
// output the monolithic cacval produced, so every PASS_REGULAR_EXPRESSION
// smoke test and every user's grep keeps working.  The CLI shim prints
// exactly this string; nothing formats output anywhere else.
#include <algorithm>
#include <cstdio>

#include "front/front.h"

namespace cac::front {

namespace {

std::string u64s(std::uint64_t v) { return std::to_string(v); }

/// Model-checker violation kinds — rendered as "violation:" lines;
/// other finding classes (lint passes, race pairs) have their own
/// renderings.
bool is_violation(const Diagnostic& d) {
  return d.pass == "stuck" || d.pass == "fault" || d.pass == "cycle" ||
         d.pass == "depth-exceeded";
}

std::string render_lint(const Result& r) {
  std::string out;
  for (const Diagnostic& f : r.findings) {
    out += r.file + ":";
    if (f.loc.valid()) {
      out += u64s(f.loc.line) + ":" + u64s(f.loc.column) + ":";
    }
    out += " ";
    out += f.severity + ": [" + f.pass + "] " + r.kernel + ": " + f.message +
           " (pc " + u64s(f.pc) + ")\n";
  }
  if (r.findings.empty()) out = r.file + ": " + r.kernel + ": clean\n";
  return out;
}

/// The fault/limit/checkpoint/store diagnostics shared by check and
/// validate (the old print_exploration_diagnostics).
std::string render_exploration(const Result& r) {
  std::string out;
  for (const Diagnostic& d : r.findings) {
    if (!is_violation(d)) continue;
    out += "violation: " + d.pass + ": " + d.message + " (after " +
           u64s(d.steps) + " steps)\n";
  }
  if (!r.stats.exhaustive) {
    out += "limit tripped: " + r.stats.limit_hit +
           " (max-states=" + u64s(r.stats.max_states_limit) +
           ", max-depth=" + u64s(r.stats.max_depth_limit) + "; visited " +
           u64s(r.stats.states_visited) + " states)\n";
  }
  if (r.checkpointed) {
    out += "checkpoint written: " + r.checkpoint_path + "\n";
  }
  const sched::StateStore::Stats& ss = r.stats.store;
  if (ss.states != 0) {
    char buf[256];
    std::snprintf(
        buf, sizeof buf,
        "store: %llu KiB resident, %llu KiB spilled, %llu evictions, "
        "%llu delta frags, %llu remats\n",
        static_cast<unsigned long long>(ss.resident_bytes >> 10),
        static_cast<unsigned long long>(ss.spilled_bytes >> 10),
        static_cast<unsigned long long>(ss.hot_evictions),
        static_cast<unsigned long long>(ss.delta_fragments),
        static_cast<unsigned long long>(ss.rematerializations));
    out += buf;
  }
  // Absorbed degradations (docs/robustness.md): reported here in the
  // text rendering only — the verdict and the JSON schema are
  // unaffected by persistence or capacity faults.
  if (ss.degraded_spill != 0) {
    out += "warning: spill tier degraded (" + u64s(ss.degraded_spill) +
           " failure" + (ss.degraded_spill == 1 ? "" : "s") +
           "); run completed resident-only\n";
  }
  if (r.stats.checkpoint_write_failures != 0) {
    out += "warning: " + u64s(r.stats.checkpoint_write_failures) +
           " checkpoint write failure" +
           (r.stats.checkpoint_write_failures == 1 ? "" : "s") +
           " (retried next cadence); verdict unaffected\n";
  }
  return out;
}

std::string render_counterexample(const Result& r) {
  if (r.counterexample.empty()) return "";
  std::string out =
      "counterexample schedule (" + u64s(r.counterexample.size()) + " steps):";
  const std::size_t show = std::min<std::size_t>(r.counterexample.size(), 20);
  for (std::size_t i = 0; i < show; ++i) out += " " + r.counterexample[i];
  out += r.counterexample.size() > show ? " ...\n" : "\n";
  return out;
}

std::string equiv_word(const Result& r) {
  if (r.verdict == "equivalent") return "PROVED";
  if (r.verdict == "not-equivalent") return "REFUTED";
  return "INCONCLUSIVE";
}

/// Equiv extras below the pinned verdict line: the first failing
/// obligation and the replay-validated counterexample, when present.
std::string render_equiv_extras(const Result& r) {
  std::string out;
  if (r.equiv_failure.present) {
    const EquivFailure& f = r.equiv_failure;
    out += "failing obligation: " + f.obligation + " (thread " +
           u64s(f.thread) + ", path " + u64s(f.path_index) + ")";
    if (!f.cell.empty()) out += " at " + f.cell;
    out += "\n";
    if (!f.lhs.empty() || !f.rhs.empty()) {
      out += "  lhs: " + f.lhs + "\n  rhs: " + f.rhs + "\n";
    }
  }
  if (r.equiv_cex.present) {
    const EquivCex& c = r.equiv_cex;
    out += "counterexample (replay-validated):\n";
    for (const auto& [name, value] : c.inputs) {
      out += "  " + name + " = " + u64s(value) + "\n";
    }
    out += "  diverging store: " + c.region + "[" + u64s(c.offset) +
           "] = " + u64s(c.value_a) + " vs " + u64s(c.value_b) + "\n";
  }
  return out;
}

}  // namespace

std::string render_text(const Result& r) {
  if (r.command == "lint") return render_lint(r);
  if (r.command == "equiv") {
    return r.kernel + " == " + r.kernel_b + ": " + equiv_word(r) + " (" +
           r.detail + ")\n" + render_equiv_extras(r);
  }
  if (r.command == "validate") {
    return r.text + render_exploration(r) + render_counterexample(r);
  }
  // check
  return r.verdict + ": " + r.detail + "\n" + render_exploration(r) +
         render_counterexample(r);
}

}  // namespace cac::front
