// Disk faults on the explorer's persistence paths (docs/robustness.md):
// every injected ENOSPC/EIO must degrade gracefully — the verdict is
// byte-identical to an unfaulted run, the degradation is counted, and
// the process neither crashes nor hangs.
//
//  * spill-append failure: the store drops to resident-only (the
//    record stays warm), stats().degraded_spill reports it, and the
//    exploration's verdict/finals are unchanged;
//  * spill-open failure at configure(): same degradation, from the
//    first byte;
//  * checkpoint write failure (open/write/rename): the run logs,
//    keeps exploring to the same verdict, and counts the failure in
//    ExploreResult::checkpoint_write_failures; a later unfaulted
//    cadence then persists a loadable checkpoint.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/finals.h"
#include "programs/corpus.h"
#include "sched/checkpoint.h"
#include "sched/explore.h"
#include "sched/state_store.h"
#include "sem/launch.h"
#include "support/fault.h"

namespace cac::sched {
namespace {

struct Lattice {
  ptx::Program prg;
  sem::KernelConfig kc;
  sem::Machine init;

  explicit Lattice(std::uint32_t instrs, std::uint32_t threads = 8)
      : prg(programs::straightline_program(instrs)),
        kc{{1, 1, 1}, {threads, 1, 1}, 2},
        init(sem::Launch(prg, kc, mem::MemSizes{}).machine()) {}
};

/// Exploration options that force the spill tier to carry real
/// traffic: a tiny resident budget over a dense lattice.
ExploreOptions tiered_opts(const std::string& spill_dir) {
  ExploreOptions o;
  o.stop_at_first_violation = false;
  o.store_spill_dir = spill_dir;
  o.store_resident_budget_bytes = 16 << 10;
  return o;
}

void expect_same_verdict(const ExploreResult& a, const ExploreResult& b) {
  EXPECT_EQ(a.exhaustive, b.exhaustive);
  EXPECT_EQ(a.states_visited, b.states_visited);
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_EQ(a.violations.size(), b.violations.size());
  ASSERT_EQ(a.final_ids.size(), b.final_ids.size());
  const auto af = finals_of(a);
  const auto bf = finals_of(b);
  for (std::size_t i = 0; i < af.size(); ++i) EXPECT_EQ(af[i], bf[i]);
}

// ---------------------------------------------------------------------
// Spill-tier faults

TEST(DiskFault, EnospcOnSpillAppendDegradesToResidentOnly) {
  const Lattice w(5, 8);
  const ExploreResult clean =
      explore(w.prg, w.kc, w.init, tiered_opts(testing::TempDir()));
  ASSERT_TRUE(clean.exhaustive);
  ASSERT_GT(clean.store_stats.spilled_bytes, 0u) << "test needs spill traffic";

  support::ScopedFaultPlan plan("op=write,path=*cac-spill*,nth=1,err=ENOSPC");
  const ExploreResult faulted =
      explore(w.prg, w.kc, w.init, tiered_opts(testing::TempDir()));
  EXPECT_GE(support::fault_injections(), 1u) << "fault never hit the seam";

  // The whole point: capacity loss, zero verdict drift.
  expect_same_verdict(clean, faulted);
  EXPECT_GT(faulted.store_stats.degraded_spill, 0u);
  // Degraded means the spill tier stopped taking bytes at the fault.
  EXPECT_LE(faulted.store_stats.spilled_bytes,
            clean.store_stats.spilled_bytes);
}

TEST(DiskFault, SpillOpenFailureAtConfigureDegrades) {
  const Lattice w(5, 8);
  support::ScopedFaultPlan plan("op=open,path=*cac-spill*,every=1,err=EACCES");
  const ExploreResult r =
      explore(w.prg, w.kc, w.init, tiered_opts(testing::TempDir()));
  EXPECT_TRUE(r.exhaustive);
  EXPECT_GT(r.store_stats.degraded_spill, 0u);
  EXPECT_EQ(r.store_stats.spilled_bytes, 0u);
}

TEST(DiskFault, StoreLevelAppendFaultKeepsRecordReadable) {
  // Unit-level: a store whose spill append fails mid-eviction keeps
  // every state materializable (the failing record stays warm).
  const Lattice w(5, 6);
  StoreOptions o;
  o.spill_dir = testing::TempDir();
  o.resident_budget_bytes = 4 << 10;
  StateStore store(o);

  std::vector<StateId> ids;
  StateId parent{};
  sem::Machine m = w.init;
  const auto r0 = store.intern(m, ~0ull, parent);
  ids.push_back(r0.id);
  parent = r0.id;
  for (int i = 0; i < 60; ++i) {
    const auto eligible = sem::eligible_choices(w.prg, m.grid);
    if (eligible.empty()) break;
    sem::apply_choice(w.prg, w.kc, m, eligible.front(), {}, nullptr);
    const auto r = store.intern(m, ~0ull, parent);
    parent = r.id;
    ids.push_back(r.id);
  }

  support::ScopedFaultPlan plan("op=write,path=*cac-spill*,every=1,err=EIO");
  store.evict_all();  // every spill attempt fails; warm demotion remains
  EXPECT_GT(store.stats().degraded_spill, 0u);

  sem::Machine replay = w.init;
  EXPECT_EQ(store.materialize(ids.front()), replay);
  EXPECT_EQ(store.materialize(ids.back()), m);
}

// ---------------------------------------------------------------------
// Checkpoint-write faults

TEST(DiskFault, CheckpointWriteFailureIsRetriedNextCadence) {
  const Lattice w(5, 8);
  const std::string path = testing::TempDir() + "/faulted.ckpt";

  ExploreOptions clean_opts;
  clean_opts.stop_at_first_violation = false;
  const ExploreResult clean = explore(w.prg, w.kc, w.init, clean_opts);

  ExploreOptions o = clean_opts;
  o.checkpoint_path = path;
  o.checkpoint_every_states = 32;  // several cadences over this lattice

  // The first two checkpoint attempts die (rename = the commit point);
  // later cadences go through.
  support::ScopedFaultPlan plan(
      "op=rename,path=*faulted.ckpt,nth=1,err=ENOSPC;"
      "op=rename,path=*faulted.ckpt,nth=2,err=EIO");
  const ExploreResult r = explore(w.prg, w.kc, w.init, o);

  expect_same_verdict(clean, r);
  EXPECT_EQ(r.checkpoint_write_failures, 2u);
  // A later cadence (or the final write) succeeded, and what landed on
  // disk is a loadable, untorn checkpoint.
  EXPECT_TRUE(r.checkpointed);
  EXPECT_NO_THROW(Checkpoint::load(path));
}

TEST(DiskFault, EveryCheckpointWriteFailingStillReachesTheVerdict) {
  const Lattice w(5, 8);
  ExploreOptions clean_opts;
  clean_opts.stop_at_first_violation = false;
  const ExploreResult clean = explore(w.prg, w.kc, w.init, clean_opts);

  const std::string path = testing::TempDir() + "/always_fails.ckpt";
  ExploreOptions o = clean_opts;
  o.checkpoint_path = path;
  o.checkpoint_every_states = 64;

  support::ScopedFaultPlan plan(
      "op=write,path=*always_fails.ckpt,every=1,err=ENOSPC");
  const ExploreResult r = explore(w.prg, w.kc, w.init, o);

  expect_same_verdict(clean, r);
  EXPECT_GT(r.checkpoint_write_failures, 0u);
  EXPECT_FALSE(r.checkpointed);
}

TEST(DiskFault, ParallelEngineSurvivesCheckpointFaults) {
  const Lattice w(5, 8);
  ExploreOptions clean_opts;
  clean_opts.stop_at_first_violation = false;
  const ExploreResult clean = explore(w.prg, w.kc, w.init, clean_opts);

  const std::string path = testing::TempDir() + "/par_fault.ckpt";
  ExploreOptions o = clean_opts;
  o.num_threads = 2;
  o.checkpoint_path = path;
  o.checkpoint_every_states = 64;

  support::ScopedFaultPlan plan("op=rename,path=*par_fault.ckpt,nth=1");
  const ExploreResult r = explore(w.prg, w.kc, w.init, o);
  EXPECT_EQ(r.exhaustive, clean.exhaustive);
  EXPECT_EQ(r.states_visited, clean.states_visited);
  EXPECT_EQ(r.transitions, clean.transitions);
  EXPECT_GE(r.checkpoint_write_failures, 1u);
}

}  // namespace
}  // namespace cac::sched
