#include "sched/explore.h"

#include <algorithm>
#include <cstdio>
#include <memory>

#include "sched/checkpoint.h"
#include "sched/dfs.h"
#include "sched/explore_internal.h"

namespace cac::sched {

namespace internal {

namespace {

/// Is the instruction register-local (touches only its own warp's
/// state)?  Such steps commute with every other warp's steps and never
/// disable them, so {that step} is a persistent set.
bool register_local(const ptx::Instr& i) {
  return std::holds_alternative<ptx::INop>(i) ||
         std::holds_alternative<ptx::IBop>(i) ||
         std::holds_alternative<ptx::ITop>(i) ||
         std::holds_alternative<ptx::IUop>(i) ||
         std::holds_alternative<ptx::IMov>(i) ||
         std::holds_alternative<ptx::ISetp>(i) ||
         std::holds_alternative<ptx::ISelp>(i) ||
         std::holds_alternative<ptx::IBra>(i) ||
         std::holds_alternative<ptx::IPBra>(i) ||
         std::holds_alternative<ptx::ISync>(i);
}

/// Persistent-set reduction: pick one register-local choice if any;
/// failing that, one ExecWarp choice whose pc is in `independent_pcs`
/// (ExploreOptions::por_independent_pcs, sorted — accesses proven
/// disjoint from every same-space site by the static analyzer).
/// Deterministic in the state, so the reduced state graph is the same
/// whichever engine expands a state.
void reduce_choices(const ptx::Program& prg, const sem::Grid& g,
                    const std::vector<std::uint32_t>& independent_pcs,
                    std::vector<sem::Choice>& eligible) {
  for (const sem::Choice& c : eligible) {
    if (c.kind != sem::Choice::Kind::ExecWarp) continue;
    const sem::Warp& w = g.blocks[c.block].warps[c.warp];
    if (register_local(prg.fetch(w.pc()))) {
      const sem::Choice keep = c;
      eligible.assign(1, keep);
      return;
    }
  }
  if (independent_pcs.empty()) return;
  for (const sem::Choice& c : eligible) {
    if (c.kind != sem::Choice::Kind::ExecWarp) continue;
    const sem::Warp& w = g.blocks[c.block].warps[c.warp];
    if (std::binary_search(independent_pcs.begin(), independent_pcs.end(),
                           w.pc())) {
      const sem::Choice keep = c;
      eligible.assign(1, keep);
      return;
    }
  }
}

}  // namespace

NodeKind classify(const ptx::Program& prg, const ExploreOptions& opts,
                  const sem::Grid& g, std::uint64_t depth,
                  std::vector<sem::Choice>& eligible,
                  std::string& stuck_reason) {
  if (sem::terminated(prg, g)) return NodeKind::Terminal;
  eligible = sem::eligible_choices(prg, g);
  if (opts.partial_order_reduction) {
    reduce_choices(prg, g, opts.por_independent_pcs, eligible);
  }
  if (eligible.empty()) {
    stuck_reason = sem::stuck_reason(prg, g);
    return NodeKind::Stuck;
  }
  return depth >= opts.max_depth ? NodeKind::Unexpanded : NodeKind::Expanded;
}

std::uint64_t working_set_bytes(std::uint64_t spilled_bytes) {
  const std::uint64_t rss = current_rss_bytes();
  return rss > spilled_bytes ? rss - spilled_bytes : 0;
}

void CheckpointTally::warn(const CheckpointError& e) {
  std::fprintf(stderr,
               "cacval: warning: checkpoint write failed, exploring on: %s\n",
               e.what());
}

}  // namespace internal

namespace {

using internal::Arrival;
using Limit = ExploreResult::Limit;

/// The serial engine's walk.  Frames own their machine; a transition
/// steps a copy of it and interns the child on the fly, so only the
/// states on the DFS stack are ever held as full machines.  Interning
/// compares structurally, so a revisit is detected across paths and a
/// hash collision cannot fake one.
class SerialWalk {
 public:
  using Key = StateId;
  struct Frame {
    StateId key;
    sem::Machine state;
    std::vector<sem::Choice> eligible;
    std::size_t next = 0;
  };

  SerialWalk(const ptx::Program& prg, const sem::KernelConfig& kc,
             const ExploreOptions& opts, StateStore& store)
      : prg_(prg), kc_(kc), opts_(opts), store_(store) {}

  /// DFS colours by StateId.v.  A state the store held before this
  /// transition was entered when it was interned, so it is Done unless
  /// it is on the stack; that is also how a resumed run's colours come
  /// back without being stored.
  Color& color(StateId id) {
    if (id.v >= colors_.size()) colors_.resize(id.v + 1, Color::Done);
    return colors_[id.v];
  }

  bool next(Frame& top, Arrival<StateId>& a) {
    if (top.next >= top.eligible.size()) return false;
    a.choice = top.eligible[top.next++];
    child_ = top.state;
    const sem::StepResult sr = sem::apply_choice(prg_, kc_, child_, a.choice,
                                                 opts_.step_opts, nullptr);
    if (!sr.ok()) {
      fault_ = sr.fault;
      a.kind = EdgeKind::Fault;
      a.fault = &fault_;
      return true;
    }
    intern(top.key, a);
    return true;
  }

  NodeKind classify(StateId, std::uint64_t depth, std::string& stuck) {
    return internal::classify(prg_, opts_, child_.grid, depth, eligible_,
                              stuck);
  }

  Frame open(StateId id) {
    return Frame{id, std::move(child_), std::move(eligible_), 0};
  }

  Arrival<StateId> root(const sem::Machine& initial) {
    child_ = initial;
    Arrival<StateId> a;
    intern(StateId{}, a);
    return a;
  }

 private:
  /// The parent seeds delta encoding: the child's warp fragments are
  /// stored as deltas against the parent's where that pays.
  void intern(StateId parent, Arrival<StateId>& a) {
    const auto r = store_.intern(child_, opts_.max_states, parent);
    if (!r.id.valid()) {
      a.kind = EdgeKind::Overflow;
      return;
    }
    if (r.inserted) color(r.id) = Color::White;
    a.child = r.id;
  }

  const ptx::Program& prg_;
  const sem::KernelConfig& kc_;
  const ExploreOptions& opts_;
  StateStore& store_;
  sem::Machine child_;  // the state the last transition reached
  std::vector<sem::Choice> eligible_;
  std::string fault_;
  std::vector<Color> colors_;
};

using SerialDfs = internal::VerdictDfs<SerialWalk>;

Checkpoint snapshot(const ptx::Program& prg, const sem::KernelConfig& kc,
                    const ExploreOptions& opts,
                    const std::shared_ptr<StateStore>& store,
                    const SerialDfs& dfs) {
  Checkpoint ck;
  ck.program_fp = program_fingerprint(prg);
  ck.config_fp = config_fingerprint(kc);
  ck.options = opts;  // only structural fields are persisted
  ck.store = store;
  ck.verdict = dfs.result;
  ck.verdict.final_ids = dfs.finals;
  ck.limits_hit = dfs.limits_hit;
  ck.stack.reserve(dfs.stack.size());
  for (const SerialWalk::Frame& f : dfs.stack) {
    ck.stack.push_back({f.key, static_cast<std::uint64_t>(f.next)});
  }
  ck.path = dfs.path;
  return ck;
}

/// Continue a checkpointed run: the store comes back with every id
/// intact, frames rematerialize their machines from it, and the
/// eligible-choice lists are recomputed (a deterministic function of
/// the state, so frame.next indexes the same choice it did before).
void restore(const ptx::Program& prg, const ExploreOptions& opts,
             const Checkpoint& ck, const StateStore& store, SerialWalk& walk,
             SerialDfs& dfs) {
  dfs.result = ck.verdict;
  dfs.result.final_ids.swap(dfs.finals);
  dfs.limits_hit = ck.limits_hit;
  dfs.path = ck.path;
  try {
    dfs.stack.reserve(ck.stack.size());
    for (const Checkpoint::Frame& f : ck.stack) {
      SerialWalk::Frame frame{f.id, store.materialize(f.id), {}, 0};
      std::string unused;
      // A stacked state was Expanded when it was pushed.
      (void)internal::classify(prg, opts, frame.state.grid, 0,
                               frame.eligible, unused);
      if (f.next > frame.eligible.size()) {
        throw CheckpointError(CheckpointError::Kind::Corrupt,
                              "stack frame choice index out of range");
      }
      frame.next = static_cast<std::size_t>(f.next);
      walk.color(f.id) = Color::OnStack;
      dfs.stack.push_back(std::move(frame));
    }
  } catch (const KernelError& e) {
    throw CheckpointError(CheckpointError::Kind::Corrupt, e.what());
  }
}

}  // namespace

ExploreResult explore(const ptx::Program& prg, const sem::KernelConfig& kc,
                      const sem::Machine& initial,
                      const ExploreOptions& opts, const Checkpoint* resume) {
  std::shared_ptr<StateStore> store;
  if (resume != nullptr) {
    verify_resume(resume->program_fp, resume->config_fp, resume->options,
                  prg, kc, opts);
    if (!resume->store) {
      throw CheckpointError(CheckpointError::Kind::Mismatch,
                            "checkpoint carries no state store");
    }
    // Tier knobs are transient: the resumed run's own budget/spill
    // settings apply, whatever the checkpointing run used.
    store = resume->store;
    store->configure(store_options(opts));
  } else {
    store = std::make_shared<StateStore>(store_options(opts));
  }

  SerialWalk walk(prg, kc, opts, *store);
  SerialDfs dfs(walk, opts);
  if (resume != nullptr) {
    restore(prg, opts, *resume, *store, walk, dfs);
  } else {
    dfs.arrive(walk.root(initial));
  }

  // The top of the DFS loop is a clean cut point: stack, path, colours,
  // finals and counters are mutually consistent, so that is where
  // budgets are enforced, checkpoints written and progress reported.
  const internal::Budget budget(opts);
  const bool budgeted = budget.any();
  internal::CheckpointTally tally;
  const auto checkpoint = [&] {
    tally.attempt([&] {
      snapshot(prg, kc, opts, store, dfs).save(opts.checkpoint_path);
    });
  };
  std::uint64_t next_checkpoint_at =
      (!opts.checkpoint_path.empty() && opts.checkpoint_every_states != 0)
          ? dfs.result.states_visited + opts.checkpoint_every_states
          : ~0ull;
  std::uint64_t next_progress_at =
      (opts.progress_fn && opts.progress_every_states != 0)
          ? dfs.result.states_visited + opts.progress_every_states
          : ~0ull;
  std::uint64_t iter = 0;

  while (dfs.active()) {
    ++iter;
    if (budgeted) {
      // The cheap flags are polled every iteration (the fault harness
      // relies on stop_after_states being exact); the clock and the
      // /proc RSS read only every 64.
      const Limit stop = budget.tripped(
          dfs.result.states_visited, (iter & 0x3f) == 0, [&] {
            return internal::working_set_bytes(store->stats().spilled_bytes);
          });
      if (stop != Limit::None) {
        // Checkpoint first: the transient stop reason must not leak
        // into the file, or the resumed run could never report itself
        // exhaustive.
        if (!opts.checkpoint_path.empty()) checkpoint();
        dfs.hit_limit(stop);
        break;
      }
    }
    if (dfs.result.states_visited >= next_checkpoint_at) {
      checkpoint();
      next_checkpoint_at =
          dfs.result.states_visited + opts.checkpoint_every_states;
    }
    if (dfs.result.states_visited >= next_progress_at) {
      opts.progress_fn({dfs.result.states_visited, dfs.result.transitions,
                        static_cast<std::uint64_t>(dfs.stack.size())});
      next_progress_at =
          dfs.result.states_visited + opts.progress_every_states;
    }
    dfs.step();
  }

  dfs.finish();
  ExploreResult result = std::move(dfs.result);
  result.final_ids = std::move(dfs.finals);
  tally.report(result);
  result.store_stats = store->stats();
  result.store = std::move(store);
  return result;
}

std::string to_string(Violation::Kind k) {
  switch (k) {
    case Violation::Kind::Stuck: return "stuck";
    case Violation::Kind::Fault: return "fault";
    case Violation::Kind::Cycle: return "cycle";
    case Violation::Kind::DepthExceeded: return "depth-exceeded";
  }
  return "?";
}

std::string to_string(ExploreResult::Limit l) {
  switch (l) {
    case ExploreResult::Limit::None: return "none";
    case ExploreResult::Limit::MaxStates: return "max-states";
    case ExploreResult::Limit::MaxDepth: return "max-depth";
    case ExploreResult::Limit::Deadline: return "deadline";
    case ExploreResult::Limit::MemLimit: return "mem-limit";
    case ExploreResult::Limit::Interrupted: return "interrupted";
  }
  return "?";
}

}  // namespace cac::sched
