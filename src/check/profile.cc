#include "check/profile.h"

#include <algorithm>

namespace cac::check {

namespace {

const char* kVariantNames[] = {
    "nop", "bop", "top", "uop",  "mov",  "ld",  "st",  "bra",
    "setp", "pbra", "selp", "sync", "bar", "exit", "atom", "vote", "shfl",
};
static_assert(std::size(kVariantNames) == std::variant_size_v<ptx::Instr>);

}  // namespace

std::string Profile::table() const {
  std::string out;
  out += "grid steps          " + std::to_string(grid_steps) + "\n";
  out += "barrier lifts       " + std::to_string(barrier_lifts) + "\n";
  out += "divergence events   " + std::to_string(divergence_events) + "\n";
  out += "sync applications   " + std::to_string(sync_steps) + "\n";
  out += "max warp leaves     " + std::to_string(max_leaf_count) + "\n";
  out += "max tree depth      " + std::to_string(max_tree_depth) + "\n";
  out += "instruction mix    ";
  for (std::size_t k = 0; k < instr_counts.size(); ++k) {
    if (instr_counts[k]) {
      out += " " + std::string(kVariantNames[k]) + ":" +
             std::to_string(instr_counts[k]);
    }
  }
  out += "\n";
  out += "lanes: ld " + std::to_string(load_lanes) + ", st " +
         std::to_string(store_lanes) + ", atom " +
         std::to_string(atomic_lanes) + "\n";
  out += "bytes: global " + std::to_string(global_bytes) + ", shared " +
         std::to_string(shared_bytes) + "\n";
  out += "diagnostics: invalid-reads " + std::to_string(invalid_reads) +
         ", lane-conflicts " + std::to_string(store_conflicts) +
         ", uninit-reads " + std::to_string(uninit_reads) + "\n";
  return out;
}

Profile profile_run(const ptx::Program& prg, const sem::KernelConfig& kc,
                    sem::Machine& m, sched::Scheduler& sched,
                    std::uint64_t max_steps) {
  Profile p;
  sem::StepOptions opts;
  opts.log_accesses = true;
  sem::StepEvents events;

  for (std::uint64_t step = 0; step < max_steps; ++step) {
    if (sem::terminated(prg, m.grid)) {
      p.run.status = sched::RunResult::Status::Terminated;
      p.run.steps = step;
      return p;
    }
    const auto eligible = sem::eligible_choices(prg, m.grid);
    if (eligible.empty()) {
      p.run.status = sched::RunResult::Status::Stuck;
      p.run.steps = step;
      p.run.message = sem::stuck_reason(prg, m.grid);
      return p;
    }
    const sem::Choice c = sched.pick(eligible, m);
    ++p.grid_steps;

    bool is_pbra = false;
    std::size_t leaves_before = 0;
    if (c.kind == sem::Choice::Kind::LiftBar) {
      ++p.barrier_lifts;
      ++p.instr_counts[ptx::Instr(ptx::IBar{}).index()];
    } else {
      const sem::Warp& w = *m.grid.blocks[c.block].warps[c.warp];
      const ptx::Instr& i = prg.fetch(w.pc());
      ++p.instr_counts[i.index()];
      if (ptx::is_sync(i)) ++p.sync_steps;
      is_pbra = std::holds_alternative<ptx::IPBra>(i);
      leaves_before = w.leaf_count();
    }

    events.clear();
    const sem::StepResult sr =
        sem::apply_choice(prg, kc, m, c, opts, &events);

    if (c.kind == sem::Choice::Kind::ExecWarp) {
      const sem::Warp& w = *m.grid.blocks[c.block].warps[c.warp];
      p.max_leaf_count = std::max(p.max_leaf_count, w.leaf_count());
      p.max_tree_depth = std::max(p.max_tree_depth, w.depth());
      if (is_pbra && w.leaf_count() > leaves_before) ++p.divergence_events;
    }
    for (const auto& a : events.accesses) {
      if (a.atomic) ++p.atomic_lanes;
      else if (a.write) ++p.store_lanes;
      else ++p.load_lanes;
      if (a.space == ptx::Space::Global) p.global_bytes += a.len;
      if (a.space == ptx::Space::Shared) p.shared_bytes += a.len;
    }
    p.invalid_reads += events.invalid_reads.size();
    p.store_conflicts += events.store_conflicts.size();
    p.uninit_reads += events.uninit_reads.size();

    if (!sr.ok()) {
      p.run.status = sched::RunResult::Status::Fault;
      p.run.steps = step + 1;
      p.run.message = sr.fault;
      return p;
    }
  }
  p.run.status = sched::RunResult::Status::BoundExceeded;
  p.run.steps = max_steps;
  return p;
}

}  // namespace cac::check
