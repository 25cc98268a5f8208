// Fault-injection harness for checkpoint/resume: simulate a crash at
// randomized points of an exploration, resume from the last
// checkpoint, and demand the uninterrupted verdict — or a structured
// CheckpointError when the file was damaged — but never a crash and
// never a silently wrong verdict.
//
// The "kill" is the stop_after_states seam: the serial engine honors
// it exactly (polled every DFS iteration), which makes every cut point
// reachable deterministically; the parallel engine is cut by its
// monitor, so the cut lands wherever the poll caught the workers —
// both are exactly the states a real SIGKILL could land in, because a
// checkpoint is only ever written at a quiescent cut.  A second layer
// re-runs with the *file* damaged at pseudo-random offsets
// (tools/checkpoint_crash_drill.py adds the real-process SIGKILL
// variant on top of cacval).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/finals.h"
#include "programs/corpus.h"
#include "ptx/lower.h"
#include "sched/checkpoint.h"
#include "sched/explore.h"
#include "sem/launch.h"

namespace cac::sched {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "cac_fault_" + name;
}

/// Deterministic PRNG (splitmix64) so failures replay exactly.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() {
    s += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = s;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return n == 0 ? 0 : next() % n; }
};

void expect_identical(const ExploreResult& a, const ExploreResult& b,
                      const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.exhaustive, b.exhaustive);
  EXPECT_EQ(a.states_visited, b.states_visited);
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_EQ(a.min_steps_to_termination, b.min_steps_to_termination);
  EXPECT_EQ(a.max_steps_to_termination, b.max_steps_to_termination);
  ASSERT_EQ(a.final_ids.size(), b.final_ids.size());
  const std::vector<sem::Machine> af = finals_of(a);
  const std::vector<sem::Machine> bf = finals_of(b);
  for (std::size_t i = 0; i < af.size(); ++i) {
    EXPECT_EQ(af[i], bf[i]) << "finals[" << i << "]";
  }
  ASSERT_EQ(a.violations.size(), b.violations.size());
  for (std::size_t i = 0; i < a.violations.size(); ++i) {
    EXPECT_EQ(a.violations[i].kind, b.violations[i].kind);
    EXPECT_EQ(a.violations[i].message, b.violations[i].message);
    EXPECT_EQ(a.violations[i].trace, b.violations[i].trace);
  }
}

struct Scenario {
  ptx::Program prg;
  sem::KernelConfig kc;
  sem::Machine init;
  std::string name;
};

std::vector<Scenario> scenarios() {
  std::vector<Scenario> out;
  {
    const ptx::Program prg = programs::straightline_program(6);
    const sem::KernelConfig kc{{1, 1, 1}, {8, 1, 1}, 2};
    out.push_back({prg, kc,
                   sem::Launch(prg, kc, mem::MemSizes{}).machine(),
                   "lattice"});
  }
  {
    const ptx::Program prg =
        ptx::load_ptx(programs::atomic_sum_ptx()).kernel("atomic_sum");
    const sem::KernelConfig kc{{2, 1, 1}, {2, 1, 1}, 2};
    sem::Launch launch(prg, kc, mem::MemSizes{64, 0, 0, 0, 1});
    launch.param("arr_A", 0).param("out", 32).param("size", 4);
    for (std::uint32_t i = 0; i < 4; ++i) launch.global_u32(4 * i, i + 1);
    launch.global_u32(32, 0);
    out.push_back({prg, kc, launch.machine(), "atomic_sum"});
  }
  {
    const ptx::Program prg = ptx::load_ptx(programs::barrier_divergence_ptx())
                                 .kernel("barrier_divergence");
    const sem::KernelConfig kc{{1, 1, 1}, {4, 1, 1}, 4};
    out.push_back({prg, kc,
                   sem::Launch(prg, kc, mem::MemSizes{}).machine(),
                   "stuck"});
  }
  return out;
}

TEST(CheckpointFault, RandomKillPointsResumeToIdenticalVerdict) {
  Rng rng{0xc0ffee};
  for (const Scenario& sc : scenarios()) {
    for (const bool por : {false, true}) {
      for (const std::uint32_t threads : {0u, 2u}) {
        ExploreOptions base;
        base.partial_order_reduction = por;
        base.stop_at_first_violation = false;
        ExploreOptions sbase = base;
        const ExploreResult full = explore(sc.prg, sc.kc, sc.init, sbase);

        const std::string tag = sc.name + "_por" + std::to_string(por) +
                                "_t" + std::to_string(threads);
        const std::string path = temp_path(tag);
        for (int trial = 0; trial < 6; ++trial) {
          const std::uint64_t kill_at =
              1 + rng.below(full.states_visited > 1 ? full.states_visited - 1
                                                    : 1);
          ExploreOptions cut = base;
          cut.num_threads = threads;
          cut.stop_after_states = kill_at;
          cut.checkpoint_path = path;
          const ExploreResult stopped = explore(sc.prg, sc.kc, sc.init, cut);

          ExploreOptions cont = base;
          cont.num_threads = threads;
          if (!stopped.checkpointed) {
            // Parallel monitor may not have caught the run in time; it
            // then completed normally — verify and move on.
            expect_identical(full, stopped, tag + " uncut");
            continue;
          }
          const Checkpoint ck = Checkpoint::load(path);
          const ExploreResult resumed =
              explore(sc.prg, sc.kc, sc.init, cont, &ck);
          expect_identical(full, resumed,
                           tag + " kill_at=" + std::to_string(kill_at));
        }
        std::remove(path.c_str());
      }
    }
  }
}

TEST(CheckpointFault, ChainedKillsAcrossGenerations) {
  // Crash, resume, crash again mid-resume, resume again — three
  // generations deep, then compare against the uninterrupted verdict.
  const ptx::Program prg = programs::straightline_program(6);
  const sem::KernelConfig kc{{1, 1, 1}, {8, 1, 1}, 2};
  const sem::Machine init = sem::Launch(prg, kc, mem::MemSizes{}).machine();

  ExploreOptions base;
  base.stop_at_first_violation = false;
  const ExploreResult full = explore(prg, kc, init, base);
  ASSERT_GT(full.states_visited, 30u);

  const std::string path = temp_path("chained");
  ExploreOptions g1 = base;
  g1.stop_after_states = full.states_visited / 4;
  g1.checkpoint_path = path;
  const ExploreResult r1 = explore(prg, kc, init, g1);
  ASSERT_TRUE(r1.checkpointed);

  const Checkpoint ck1 = Checkpoint::load(path);
  ExploreOptions g2 = base;
  g2.stop_after_states = full.states_visited / 2;
  g2.checkpoint_path = path;
  const ExploreResult r2 = explore(prg, kc, init, g2, &ck1);
  ASSERT_TRUE(r2.checkpointed);
  ASSERT_EQ(r2.limit_hit, ExploreResult::Limit::Interrupted);

  const Checkpoint ck2 = Checkpoint::load(path);
  const ExploreResult resumed = explore(prg, kc, init, base, &ck2);
  expect_identical(full, resumed, "generation 3");
  std::remove(path.c_str());
}

TEST(CheckpointFault, RandomFileDamageNeverCrashesNeverLies) {
  // Produce a good checkpoint, then hand the loader pseudo-randomly
  // damaged variants: every outcome must be either a clean load of a
  // *valid* checkpoint (flips that miss all validated bytes cannot
  // happen — the checksum covers the whole payload) or a structured
  // CheckpointError.
  const ptx::Program prg = programs::straightline_program(6);
  const sem::KernelConfig kc{{1, 1, 1}, {8, 1, 1}, 2};
  const sem::Machine init = sem::Launch(prg, kc, mem::MemSizes{}).machine();

  const std::string path = temp_path("damage");
  ExploreOptions opts;
  opts.stop_at_first_violation = false;
  opts.stop_after_states = 20;
  opts.checkpoint_path = path;
  const ExploreResult r = explore(prg, kc, init, opts);
  ASSERT_TRUE(r.checkpointed);

  std::string good;
  {
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    good = ss.str();
  }
  ASSERT_GT(good.size(), 32u);

  Rng rng{0xdecafbad};
  for (int trial = 0; trial < 200; ++trial) {
    std::string bad = good;
    switch (trial % 3) {
      case 0:  // single bit flip
        bad[rng.below(bad.size())] ^= static_cast<char>(1u << rng.below(8));
        break;
      case 1:  // truncate
        bad.resize(rng.below(bad.size()));
        break;
      case 2:  // garbage splice
        for (int k = 0; k < 8; ++k) {
          bad[rng.below(bad.size())] = static_cast<char>(rng.next());
        }
        break;
    }
    if (bad == good) continue;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bad.data(), static_cast<std::streamsize>(bad.size()));
    out.close();
    try {
      const Checkpoint ck = Checkpoint::load(path);
      // Loadable despite damage would mean the damage missed every
      // meaningful byte — impossible with a full-payload checksum
      // unless the flip undid itself (excluded above).
      FAIL() << "trial " << trial << ": damaged checkpoint loaded";
    } catch (const CheckpointError&) {
      // Structured rejection — the required outcome.
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cac::sched
