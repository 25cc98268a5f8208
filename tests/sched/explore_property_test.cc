// Property tests for the schedule explorer on random programs:
//  * the deterministic run's final state is among the explored finals,
//  * seeded-random runs only ever produce explored finals,
//  * POR preserves the final-state set,
//  * disjoint-store programs are schedule-independent.
#include <gtest/gtest.h>

#include <algorithm>

#include "common/finals.h"
#include "common/random_program.h"
#include "ptx/emit.h"
#include "ptx/lower.h"
#include "sched/explore.h"
#include "sched/scheduler.h"
#include "sem/launch.h"

namespace cac::sched {
namespace {

using testing::RandomProgramOptions;
using testing::Rng;

class ExplorePropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ExplorePropertyTest, FinalsCoverEveryScheduler) {
  Rng rng(GetParam());
  RandomProgramOptions gen;
  gen.n_instrs = 6 + rng.below(8);
  gen.allow_stores = true;  // disjoint per-thread stores at 128+4*tid
  const ptx::Program prg =
      ptx::load_ptx(ptx::emit_ptx(testing::random_program(rng, gen)))
          .kernel("fuzz");

  const sem::KernelConfig kc{{1, 1, 1}, {4, 1, 1}, 2};  // two warps
  sem::Launch launch(prg, kc, mem::MemSizes{256, 0, 0, 0, 1});
  std::uint8_t init[64];
  for (auto& b : init) b = static_cast<std::uint8_t>(rng.next());
  launch.memory().write_init(mem::Space::Global, 0, init, sizeof init);
  const sem::Machine initial = launch.machine();

  ExploreOptions opts;
  const ExploreResult full = explore(prg, kc, initial, opts);
  ASSERT_TRUE(full.exhaustive);
  ASSERT_TRUE(full.all_schedules_terminate());
  // Disjoint stores + thread-local registers: schedule independent.
  EXPECT_TRUE(full.schedule_independent());

  // Deterministic and random schedules land in the explored finals.
  const std::vector<sem::Machine> full_finals = finals_of(full);
  for (int variant = 0; variant < 3; ++variant) {
    sem::Machine m = initial;
    FirstChoiceScheduler fc;
    RandomScheduler rnd(GetParam() * 31 + variant);
    Scheduler& s = variant == 0 ? static_cast<Scheduler&>(fc)
                                : static_cast<Scheduler&>(rnd);
    ASSERT_TRUE(run(prg, kc, m, s).terminated());
    EXPECT_NE(std::find(full_finals.begin(), full_finals.end(), m),
              full_finals.end());
  }

  // POR agrees on the final-state set.
  ExploreOptions por = opts;
  por.partial_order_reduction = true;
  const ExploreResult reduced = explore(prg, kc, initial, por);
  ASSERT_TRUE(reduced.exhaustive);
  auto hashes = [](const std::vector<sem::Machine>& ms) {
    std::vector<std::uint64_t> h;
    for (const auto& m : ms) h.push_back(m.hash());
    std::sort(h.begin(), h.end());
    return h;
  };
  EXPECT_EQ(hashes(finals_of(full)), hashes(finals_of(reduced)));
  EXPECT_LE(reduced.states_visited, full.states_visited);
}

TEST_P(ExplorePropertyTest, CollidingStoresStillCovered) {
  // stride 0: every thread stores to Global[128] — genuinely racy
  // across warps; the explored finals must still cover concrete runs.
  Rng rng(GetParam() ^ 0xabcdef);
  RandomProgramOptions gen;
  gen.n_instrs = 5 + rng.below(6);
  gen.allow_stores = true;
  gen.store_stride = 0;
  gen.allow_branch = false;
  const ptx::Program prg =
      ptx::load_ptx(ptx::emit_ptx(testing::random_program(rng, gen)))
          .kernel("fuzz");

  const sem::KernelConfig kc{{2, 1, 1}, {2, 1, 1}, 2};  // two blocks
  sem::Launch launch(prg, kc, mem::MemSizes{256, 0, 0, 0, 1});
  std::uint8_t init[64];
  for (auto& b : init) b = static_cast<std::uint8_t>(rng.next());
  launch.memory().write_init(mem::Space::Global, 0, init, sizeof init);
  const sem::Machine initial = launch.machine();

  const ExploreResult full = explore(prg, kc, initial, {});
  ASSERT_TRUE(full.exhaustive);
  ASSERT_TRUE(full.all_schedules_terminate());
  const std::vector<sem::Machine> full_finals = finals_of(full);
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    sem::Machine m = initial;
    RandomScheduler s(seed);
    ASSERT_TRUE(run(prg, kc, m, s).terminated());
    EXPECT_NE(std::find(full_finals.begin(), full_finals.end(), m),
              full_finals.end());
  }

  ExploreOptions por;
  por.partial_order_reduction = true;
  const ExploreResult reduced = explore(prg, kc, initial, por);
  EXPECT_EQ(full.final_ids.size(), reduced.final_ids.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExplorePropertyTest,
                         ::testing::Range<std::uint64_t>(1, 13));

}  // namespace
}  // namespace cac::sched
