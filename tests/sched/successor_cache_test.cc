// The state store's successor cache against a walk without one.
//
// explore() takes a transition whose ExecWarp step it has seen before
// from the cache: it interns the parent's id tuple with the recorded
// fragments put in, and never steps the machine.  The reference walk
// here steps every transition with sem::apply_choice and interns the
// child into its own store, under the same verdict DFS.  The two must
// agree id by id — every state id materializes to the same machine —
// and on transitions, finals and violations with their paths, on
// corpus kernels with and without POR and the static oracle, per-block
// Shared banks, atomics, a faulting store, stuck and racy refutations,
// a depth cut, random programs and a budgeted, spilling store.  It
// also pins where explore() builds machines, and the bytes it books.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "analysis/disjoint.h"
#include "common/corpus_pins.h"
#include "common/random_program.h"
#include "programs/corpus.h"
#include "ptx/emit.h"
#include "ptx/lower.h"
#include "sched/dfs.h"
#include "sched/explore.h"
#include "sem/launch.h"
#include "support/binio.h"

namespace cac::sched {
namespace {

using internal::Arrival;

/// Steps every transition and interns the child into its own store;
/// counts the ExecWarp steps it takes.
class SteppingWalk {
 public:
  using Key = StateId;
  struct Frame {
    StateId key;
    sem::Machine state;
    std::vector<sem::Choice> eligible;
    std::size_t next = 0;
  };

  SteppingWalk(const ptx::Program& prg, const sem::KernelConfig& kc,
               const ExploreOptions& opts)
      : prg_(prg), kc_(kc), opts_(opts) {}

  Color& color(StateId id) {
    if (id.v >= colors_.size()) colors_.resize(id.v + 1, Color::Done);
    return colors_[id.v];
  }

  bool next(Frame& top, Arrival<StateId>& a) {
    if (top.next >= top.eligible.size()) return false;
    a.choice = top.eligible[top.next++];
    if (a.choice.kind == sem::Choice::Kind::ExecWarp) ++exec_steps;
    child_ = top.state;
    const sem::StepResult sr = sem::apply_choice(prg_, kc_, child_, a.choice,
                                                 opts_.step_opts, nullptr);
    if (!sr.ok()) {
      fault_ = sr.fault;
      a.kind = EdgeKind::Fault;
      a.fault = &fault_;
      return true;
    }
    land(store.intern(child_, opts_.max_states, top.key), a);
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
    land(store.intern(child_, opts_.max_states), a);
    return a;
  }

  StateStore store;
  std::uint64_t exec_steps = 0;

 private:
  void land(const StateStore::InternResult& r, Arrival<StateId>& a) {
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
  sem::Machine child_;
  std::vector<sem::Choice> eligible_;
  std::string fault_;
  std::vector<Color> colors_;
};

/// The successor-cache key of choice `c` in `m`: the warp an ExecWarp
/// steps and the space of its ld/st/atom; none for lift-bar.
std::optional<StateStore::Step> step_of(const ptx::Program& prg,
                                        const sem::Machine& m,
                                        const sem::Choice& c) {
  if (c.kind != sem::Choice::Kind::ExecWarp) return std::nullopt;
  return StateStore::Step{
      c.block, c.warp,
      sem::step_space(prg, *m.grid.blocks[c.block].warps[c.warp])};
}

/// Explore with and without the cache and require the same outcome, id
/// by id.  Returns explore()'s result.
ExploreResult expect_same_as_stepping(const ptx::Program& prg,
                                      const sem::KernelConfig& kc,
                                      const sem::Machine& init,
                                      const ExploreOptions& opts) {
  const ExploreResult got = explore(prg, kc, init, opts);

  SteppingWalk walk(prg, kc, opts);
  internal::VerdictDfs<SteppingWalk> dfs(walk, opts);
  dfs.arrive(walk.root(init));
  dfs.run();
  dfs.finish();
  const ExploreResult& want = dfs.result;

  EXPECT_EQ(got.exhaustive, want.exhaustive);
  EXPECT_EQ(got.limit_hit, want.limit_hit);
  EXPECT_EQ(got.states_visited, want.states_visited);
  EXPECT_EQ(got.transitions, want.transitions);
  EXPECT_EQ(got.min_steps_to_termination, want.min_steps_to_termination);
  EXPECT_EQ(got.max_steps_to_termination, want.max_steps_to_termination);
  EXPECT_EQ(got.final_ids, dfs.finals);
  EXPECT_EQ(got.violations.size(), want.violations.size());
  for (std::size_t i = 0;
       i < got.violations.size() && i < want.violations.size(); ++i) {
    EXPECT_EQ(got.violations[i].kind, want.violations[i].kind) << i;
    EXPECT_EQ(got.violations[i].message, want.violations[i].message) << i;
    EXPECT_EQ(got.violations[i].trace, want.violations[i].trace) << i;
  }
  EXPECT_EQ(got.store->size(), walk.store.size());
  for (std::uint32_t i = 0;
       i < got.store->size() && i < walk.store.size(); ++i) {
    EXPECT_EQ(got.store->materialize(StateId{i}),
              walk.store.materialize(StateId{i}))
        << "state " << i;
  }
  // Every ExecWarp transition consulted the cache; lift-bar never did.
  EXPECT_EQ(got.store_stats.successor_hits + got.store_stats.successor_misses,
            walk.exec_steps);
  // explore() builds a machine only where the kernel must run: once
  // per miss, per lift-bar and per stuck state's reason.  A hit builds
  // none.
  std::uint64_t stuck = 0;
  for (const Violation& v : got.violations) {
    stuck += v.kind == Violation::Kind::Stuck ? 1 : 0;
  }
  EXPECT_EQ(got.store_stats.materializations,
            got.store_stats.successor_misses +
                (got.transitions - walk.exec_steps) + stuck);
  // A hit books a new state's bytes from its fragments' records, which
  // is what intern() books for the machine while every fragment is hot.
  if (opts.store_resident_budget_bytes == 0) {
    EXPECT_EQ(got.store_stats.materialized_bytes,
              walk.store.stats().materialized_bytes);
  }
  return got;
}

/// The static analyzer's view of the same launch.
analysis::LaunchEnv launch_env(const ptx::Program& prg,
                               const sem::LaunchSpec& s) {
  analysis::LaunchEnv env;
  env.known = true;
  env.ntid[0] = s.block.x;
  env.nctaid[0] = s.grid.x;
  for (const auto& [name, value] : s.params) {
    for (const ptx::ParamSlot& slot : prg.params()) {
      if (slot.name == name) env.params[slot.offset] = value;
    }
  }
  return env;
}

TEST(SuccessorCache, AgreesWithSteppingOnCorpusKernels) {
  for (const char* kernel : {"add_vector", "xor_cipher", "saxpy", "reduce",
                             "scan_prefix", "atomic_sum", "histogram"}) {
    const ptx::Program prg =
        ptx::load_ptx(pin_source(kernel)).kernel(kernel);
    const sem::LaunchSpec spec = pin_launch(kernel);
    const sem::Launch launch = spec.to_launch(prg);
    for (const int mode : {0, 1, 2}) {  // no POR, POR, POR + oracle
      SCOPED_TRACE(std::string(kernel) + " mode " + std::to_string(mode));
      ExploreOptions opts;
      opts.stop_at_first_violation = false;
      opts.partial_order_reduction = mode != 0;
      if (mode == 2) {
        opts.por_independent_pcs =
            analysis::independent_access_pcs(prg, launch_env(prg, spec));
      }
      const ExploreResult r = expect_same_as_stepping(
          prg, launch.config(), launch.machine(), opts);
      EXPECT_TRUE(r.exhaustive);
      if (mode == 0) {
        EXPECT_GT(r.store_stats.successor_hits, 0u);
      }
    }
  }
}

TEST(SuccessorCache, PerBlockSharedBanks) {
  // Two blocks, each with its own Shared bank: a Shared step is keyed
  // on its block's bank, and the other block's bank is left alone.
  const ptx::Program prg =
      ptx::load_ptx(programs::reduce_shared_ptx()).kernel("reduce");
  sem::LaunchSpec spec = pin_launch("reduce");
  spec.grid = {2, 1, 1};
  spec.block = {2, 1, 1};
  spec.warp_size = 1;
  const sem::Launch launch = spec.to_launch(prg);
  ASSERT_EQ(launch.machine().memory.shared_bank_refs().size(), 2u);
  for (const bool por : {false, true}) {
    SCOPED_TRACE(por ? "por" : "no por");
    ExploreOptions opts;
    opts.stop_at_first_violation = false;
    opts.partial_order_reduction = por;
    const ExploreResult r = expect_same_as_stepping(
        prg, launch.config(), launch.machine(), opts);
    EXPECT_TRUE(r.exhaustive);
    EXPECT_GT(r.store_stats.successor_hits, 0u);
  }
}

TEST(SuccessorCache, FaultingStoreIsNeverCached) {
  // Warp 1's lanes store past the end of Global from every state that
  // reaches its st; each of those transitions must re-step and fault.
  const ptx::Program prg = ptx::load_ptx(R"(
.version 6.0
.target sm_30
.address_size 64
.visible .entry oob_store(
  .param .u64 out
)
{
  .reg .u32 %r<2>;
  .reg .u64 %rd<4>;
  ld.param.u64 %rd1, [out];
  mov.u32 %r1, %tid.x;
  mul.wide.u32 %rd2, %r1, 32;
  add.u64 %rd3, %rd1, %rd2;
  st.global.u32 [%rd3], %r1;
  ret;
}
)").kernel("oob_store");
  sem::LaunchSpec spec;
  spec.block = {4, 1, 1};
  spec.warp_size = 2;
  spec.global_bytes = 64;
  spec.params = {{"out", 0}};
  const sem::Launch launch = spec.to_launch(prg);
  ExploreOptions opts;
  opts.stop_at_first_violation = false;
  const ExploreResult r =
      expect_same_as_stepping(prg, launch.config(), launch.machine(), opts);
  std::uint64_t faults = 0;
  for (const Violation& v : r.violations) {
    faults += v.kind == Violation::Kind::Fault ? 1 : 0;
  }
  ASSERT_GT(faults, 1u);
  EXPECT_GE(r.store_stats.successor_misses, faults);
}

TEST(SuccessorCache, StuckRefutations) {
  // Barrier divergence, and a divergent warp at Exit (built directly,
  // so no Sync is inserted to repair it): explore() names each stuck
  // state's reason from a machine it materializes for that alone.
  const ptx::Program barrier =
      ptx::load_ptx(programs::barrier_divergence_ptx())
          .kernel("barrier_divergence");
  const ptx::Program div_exit = programs::divergent_exit_program();
  for (const ptx::Program* prg : {&barrier, &div_exit}) {
    SCOPED_TRACE(prg->name());
    const sem::KernelConfig kc{{1, 1, 1}, {4, 1, 1}, 2};
    const sem::Machine init = sem::Launch(*prg, kc, mem::MemSizes{}).machine();
    for (const bool por : {false, true}) {
      ExploreOptions opts;
      opts.stop_at_first_violation = false;
      opts.partial_order_reduction = por;
      const ExploreResult r = expect_same_as_stepping(*prg, kc, init, opts);
      EXPECT_TRUE(r.exhaustive);
      ASSERT_FALSE(r.violations.empty());
      EXPECT_EQ(r.violations.front().kind, Violation::Kind::Stuck);
    }
  }
}

TEST(SuccessorCache, RaceStoreRefutation) {
  // Two warps store their tids to one word: the finals differ by
  // schedule.
  const ptx::Program prg =
      ptx::load_ptx(programs::race_store_ptx()).kernel("race_store");
  const sem::KernelConfig kc{{1, 1, 1}, {4, 1, 1}, 2};
  sem::Launch launch(prg, kc, mem::MemSizes{16, 0, 0, 0, 1});
  launch.param("out", 0);
  ExploreOptions opts;
  opts.stop_at_first_violation = false;
  const ExploreResult r =
      expect_same_as_stepping(prg, kc, launch.machine(), opts);
  EXPECT_TRUE(r.exhaustive);
  EXPECT_FALSE(r.schedule_independent());
}

TEST(SuccessorCache, DepthCut) {
  // The reduction under a depth bound: states at the bound are left
  // unexpanded, each with a depth-exceeded violation.
  const ptx::Program prg =
      ptx::load_ptx(pin_source("reduce")).kernel("reduce");
  const sem::Launch launch = pin_launch("reduce").to_launch(prg);
  ExploreOptions opts;
  opts.stop_at_first_violation = false;
  opts.max_depth = 12;
  const ExploreResult r = expect_same_as_stepping(
      prg, launch.config(), launch.machine(), opts);
  EXPECT_FALSE(r.exhaustive);
  EXPECT_EQ(r.limit_hit, ExploreResult::Limit::MaxDepth);
  ASSERT_FALSE(r.violations.empty());
  EXPECT_EQ(r.violations.front().kind, Violation::Kind::DepthExceeded);
}

TEST(SuccessorCache, RandomPrograms) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    testing::Rng rng(seed);
    testing::RandomProgramOptions gen;
    gen.n_instrs = 6 + rng.below(8);
    gen.allow_stores = true;
    gen.store_stride = seed % 2 == 0 ? 0 : 4;  // racy or disjoint
    const ptx::Program prg =
        ptx::load_ptx(ptx::emit_ptx(testing::random_program(rng, gen)))
            .kernel("fuzz");
    // Two blocks of one warp, or one block of two warps.
    const sem::KernelConfig kc =
        seed % 3 == 0 ? sem::KernelConfig{{2, 1, 1}, {2, 1, 1}, 2}
                      : sem::KernelConfig{{1, 1, 1}, {4, 1, 1}, 2};
    sem::Launch launch(prg, kc, mem::MemSizes{256, 0, 0, 0, 1});
    std::uint8_t init[64];
    for (auto& b : init) b = static_cast<std::uint8_t>(rng.next());
    launch.memory().write_init(mem::Space::Global, 0, init, sizeof init);
    for (const bool por : {false, true}) {
      ExploreOptions opts;
      opts.stop_at_first_violation = false;
      opts.partial_order_reduction = por;
      (void)expect_same_as_stepping(prg, kc, launch.machine(), opts);
    }
  }
}

TEST(SuccessorCache, BudgetedSpillingStore) {
  // Four warps through a straight line: 15^4 = 50,625 states, whose
  // tuple records alone outgrow a 1-MiB budget, so eviction demotes
  // and spills fragments and then drops the cache, again and again.
  const ptx::Program prg = programs::straightline_program(12);
  const sem::KernelConfig kc{{1, 1, 1}, {8, 1, 1}, 2};
  const sem::Machine init = sem::Launch(prg, kc, mem::MemSizes{}).machine();
  ExploreOptions opts;
  opts.stop_at_first_violation = false;
  const ExploreResult unbudgeted = explore(prg, kc, init, opts);
  opts.store_resident_budget_bytes = 1 << 20;
  opts.store_spill_dir = ::testing::TempDir();
  const ExploreResult r = expect_same_as_stepping(prg, kc, init, opts);
  EXPECT_TRUE(r.exhaustive);
  EXPECT_EQ(r.states_visited, 50625u);
  EXPECT_GT(r.store_stats.spilled_bytes, 0u);
  // Without a budget each key misses once; a dropped cache misses again.
  EXPECT_GT(r.store_stats.successor_misses,
            unbudgeted.store_stats.successor_misses);
  EXPECT_GT(r.store_stats.successor_hits, 0u);
}

TEST(SuccessorCache, NotEncoded) {
  // A step recorded in a store hits there and misses in its decoded
  // copy, which starts with an empty cache.
  const ptx::Program prg = programs::straightline_program(3);
  const sem::KernelConfig kc{{1, 1, 1}, {4, 1, 1}, 2};
  sem::Machine m = sem::Launch(prg, kc, mem::MemSizes{}).machine();
  StateStore store;
  const StateId root = store.intern(m).id;
  const sem::Choice c{sem::Choice::Kind::ExecWarp, 0, 1};
  const std::optional<StateStore::Step> step = step_of(prg, m, c);
  ASSERT_TRUE(step.has_value());
  sem::Machine child = m;
  ASSERT_TRUE(sem::apply_choice(prg, kc, child, c).ok());
  const StateStore::InternResult stepped =
      store.intern(child, ~0ull, root, &*step);
  ASSERT_TRUE(stepped.inserted);

  const auto hit = store.intern_successor(root, *step, ~0ull);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->id, stepped.id);
  EXPECT_FALSE(hit->inserted);

  support::BinWriter w;
  store.encode(w);
  const std::string bytes = w.take();
  support::BinReader r(bytes);
  StateStore copy;
  copy.decode(r);
  EXPECT_FALSE(copy.intern_successor(root, *step, ~0ull));
  EXPECT_EQ(copy.stats().successor_misses, 1u);
  EXPECT_EQ(copy.materialize(stepped.id), child);
}

}  // namespace
}  // namespace cac::sched
