#include "sched/explore.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <span>

#include "sched/checkpoint.h"
#include "sched/dfs.h"

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
/// `pc_of(c)` is the pc of the warp ExecWarp choice `c` steps.
/// Deterministic in the state, so a resumed run re-derives the same
/// reduced choices.
template <typename PcOf>
void reduce_choices(const ptx::Program& prg,
                    const std::vector<std::uint32_t>& independent_pcs,
                    PcOf&& pc_of, std::vector<sem::Choice>& eligible) {
  for (const sem::Choice& c : eligible) {
    if (c.kind != sem::Choice::Kind::ExecWarp) continue;
    if (register_local(prg.fetch(pc_of(c)))) {
      const sem::Choice keep = c;
      eligible.assign(1, keep);
      return;
    }
  }
  if (independent_pcs.empty()) return;
  for (const sem::Choice& c : eligible) {
    if (c.kind != sem::Choice::Kind::ExecWarp) continue;
    if (std::binary_search(independent_pcs.begin(), independent_pcs.end(),
                           pc_of(c))) {
      const sem::Choice keep = c;
      eligible.assign(1, keep);
      return;
    }
  }
}

/// The one state classification (see the grid form in dfs.h), from a
/// state's warp statuses: block b has `warps_per_block[b]` warps, and
/// `status(b, w)` is warp w's.  A Stuck state's reason is left to the
/// caller, which needs the machine for it.
template <typename StatusOf>
NodeKind classify_warps(const ptx::Program& prg, const ExploreOptions& opts,
                        const std::vector<std::uint32_t>& warps_per_block,
                        StatusOf&& status, std::uint64_t depth,
                        std::vector<sem::Choice>& eligible) {
  eligible.clear();
  const auto blocks = static_cast<std::uint32_t>(warps_per_block.size());
  bool terminal = true;
  for (std::uint32_t b = 0; terminal && b < blocks; ++b) {
    for (std::uint32_t w = 0; terminal && w < warps_per_block[b]; ++w) {
      terminal = status(b, w).complete;
    }
  }
  if (terminal) return NodeKind::Terminal;
  for (std::uint32_t b = 0; b < blocks; ++b) {
    sem::append_block_choices(
        b, warps_per_block[b],
        [&](std::uint32_t w) -> decltype(auto) { return status(b, w); },
        eligible);
  }
  if (opts.partial_order_reduction) {
    reduce_choices(
        prg, opts.por_independent_pcs,
        [&](const sem::Choice& c) { return status(c.block, c.warp).pc; },
        eligible);
  }
  if (eligible.empty()) return NodeKind::Stuck;
  return depth >= opts.max_depth ? NodeKind::Unexpanded : NodeKind::Expanded;
}

}  // namespace

NodeKind classify(const ptx::Program& prg, const ExploreOptions& opts,
                  const sem::Grid& g, std::uint64_t depth,
                  std::vector<sem::Choice>& eligible,
                  std::string& stuck_reason) {
  std::vector<std::uint32_t> warps_per_block;
  for (const sem::Block& b : g.blocks) {
    warps_per_block.push_back(static_cast<std::uint32_t>(b.warps.size()));
  }
  const NodeKind kind = classify_warps(
      prg, opts, warps_per_block,
      [&](std::uint32_t b, std::uint32_t w) {
        return sem::warp_status(prg, *g.blocks[b].warps[w]);
      },
      depth, eligible);
  if (kind == NodeKind::Stuck) stuck_reason = sem::stuck_reason(prg, g);
  return kind;
}

SerialWalk::SerialWalk(const ptx::Program& prg, const sem::KernelConfig& kc,
                       const ExploreOptions& opts, StateStore& store)
    : prg_(prg), kc_(kc), opts_(opts), store_(store) {
  index_shape();  // a resumed store has its shape already
}

bool SerialWalk::next(Frame& top, Arrival<StateId>& a) {
  if (top.next >= top.eligible.size()) return false;
  a.choice = top.eligible[top.next++];
  std::optional<StateStore::Step> step;
  if (a.choice.kind == sem::Choice::Kind::ExecWarp) {
    const std::uint32_t frag =
        store_.tuple(top.key)[first_warp_[a.choice.block] + a.choice.warp];
    step = StateStore::Step{a.choice.block, a.choice.warp,
                            status(frag).space};
    if (const auto hit =
            store_.intern_successor(top.key, *step, opts_.max_states)) {
      land(*hit, a);
      return true;
    }
  }
  sem::Machine child = store_.materialize(top.key);
  const sem::StepResult sr = sem::apply_choice(prg_, kc_, child, a.choice,
                                               opts_.step_opts, nullptr);
  if (!sr.ok()) {
    fault_ = sr.fault;
    a.kind = EdgeKind::Fault;
    a.fault = &fault_;
    return true;
  }
  // The parent seeds delta encoding: the child's warp fragments are
  // stored as deltas against the parent's where that pays.
  land(store_.intern(child, opts_.max_states, top.key,
                     step ? &*step : nullptr),
       a);
  return true;
}

NodeKind SerialWalk::classify(StateId id, std::uint64_t depth,
                              std::string& stuck) {
  const std::span<const std::uint32_t> tuple = store_.tuple(id);
  // Fill first: a lookup below must not grow the table under another's
  // reference.
  for (std::uint32_t k = 0; k < warp_slots_; ++k) (void)status(tuple[k]);
  const NodeKind kind = classify_warps(
      prg_, opts_, store_.warps_per_block(),
      [&](std::uint32_t b, std::uint32_t w) -> const sem::WarpStatus& {
        return *statuses_[tuple[first_warp_[b] + w]];
      },
      depth, eligible_);
  if (kind == NodeKind::Stuck) {
    stuck = sem::stuck_reason(prg_, store_.materialize(id).grid);
  }
  return kind;
}

SerialWalk::Frame SerialWalk::open(StateId id) {
  // A copy, so eligible_ keeps its capacity for the next state.
  return Frame{id, eligible_, 0};
}

Arrival<StateId> SerialWalk::root(const sem::Machine& initial) {
  sem::Machine m = initial;
  Arrival<StateId> a;
  land(store_.intern(m, opts_.max_states), a);
  index_shape();
  return a;
}

const sem::WarpStatus& SerialWalk::status(std::uint32_t frag) {
  if (frag >= statuses_.size()) statuses_.resize(frag + 1);
  std::optional<sem::WarpStatus>& s = statuses_[frag];
  if (!s) s = sem::warp_status(prg_, *store_.warp(frag));
  return *s;
}

void SerialWalk::index_shape() {
  first_warp_.clear();
  warp_slots_ = 0;
  for (const std::uint32_t n : store_.warps_per_block()) {
    first_warp_.push_back(warp_slots_);
    warp_slots_ += n;
  }
}

void SerialWalk::land(const StateStore::InternResult& r,
                      Arrival<StateId>& a) {
  if (!r.id.valid()) {
    a.kind = EdgeKind::Overflow;
    return;
  }
  if (r.inserted) color(r.id) = Color::White;
  a.child = r.id;
}

}  // namespace internal

namespace {

using internal::SerialWalk;
using Limit = ExploreResult::Limit;

/// The store's tier knobs, taken from the exploration options.
StoreOptions store_options(const ExploreOptions& o) {
  StoreOptions so;
  so.spill_dir = o.store_spill_dir;
  so.resident_budget_bytes = o.store_resident_budget_bytes;
  return so;
}

/// Resident set size minus the bytes the store has spilled to disk:
/// spilled segments are reclaimable page cache, and counting them would
/// let a tripped memory watermark never clear by spilling.
std::uint64_t working_set_bytes(std::uint64_t spilled_bytes) {
  const std::uint64_t rss = current_rss_bytes();
  return rss > spilled_bytes ? rss - spilled_bytes : 0;
}

/// The graceful-stop budgets of ExploreOptions.  The clock starts at
/// construction.
class Budget {
 public:
  explicit Budget(const ExploreOptions& opts)
      : opts_(opts), start_(std::chrono::steady_clock::now()) {}

  /// Is any budget set?  The run skips polling otherwise.
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
  [[nodiscard]] Limit tripped(std::uint64_t states, bool poll_slow,
                              WorkingSet&& working_set) const {
    if (opts_.stop_flag != nullptr &&
        opts_.stop_flag->load(std::memory_order_relaxed)) {
      return Limit::Interrupted;
    }
    if (opts_.stop_after_states != 0 && states >= opts_.stop_after_states) {
      return Limit::Interrupted;
    }
    if (!poll_slow) return Limit::None;
    if (opts_.deadline_ms != 0 &&
        std::chrono::steady_clock::now() - start_ >=
            std::chrono::milliseconds(opts_.deadline_ms)) {
      return Limit::Deadline;
    }
    if (opts_.mem_limit_bytes != 0 &&
        working_set() >= opts_.mem_limit_bytes) {
      return Limit::MemLimit;
    }
    return Limit::None;
  }

 private:
  const ExploreOptions& opts_;
  std::chrono::steady_clock::time_point start_;
};

/// Checkpoint outcomes the run reports in its ExploreResult, and the
/// one write-failure policy: persistence never decides a verdict, so a
/// failed write is counted and logged and the run goes on.  Only
/// resumability is at stake.
struct CheckpointTally {
  bool written = false;
  std::uint64_t failures = 0;

  /// Run `write`, counting and logging a CheckpointError it throws.
  template <typename Write>
  void attempt(Write&& write) {
    try {
      write();
      written = true;
    } catch (const CheckpointError& e) {
      ++failures;
      std::fprintf(
          stderr,
          "cacval: warning: checkpoint write failed, exploring on: %s\n",
          e.what());
    }
  }

  void report(ExploreResult& r) const {
    r.checkpointed = written;
    r.checkpoint_write_failures = failures;
  }
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
/// intact, and each stacked frame's eligible choices are re-derived
/// from its warps' statuses (a deterministic function of the state, so
/// frame.next indexes the same choice it did before).
void restore(const Checkpoint& ck, SerialWalk& walk, SerialDfs& dfs) {
  dfs.result = ck.verdict;
  dfs.result.final_ids.swap(dfs.finals);
  dfs.limits_hit = ck.limits_hit;
  dfs.path = ck.path;
  try {
    dfs.stack.reserve(ck.stack.size());
    for (const Checkpoint::Frame& f : ck.stack) {
      std::string unused;
      // A stacked state was Expanded when it was pushed.
      (void)walk.classify(f.id, 0, unused);
      SerialWalk::Frame frame = walk.open(f.id);
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
    restore(*resume, walk, dfs);
  } else {
    dfs.arrive(walk.root(initial));
  }

  // The top of the DFS loop is a clean cut point: stack, path, colours,
  // finals and counters are mutually consistent, so that is where
  // budgets are enforced, checkpoints written and progress reported.
  const Budget budget(opts);
  const bool budgeted = budget.any();
  CheckpointTally tally;
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
            return working_set_bytes(store->stats().spilled_bytes);
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
