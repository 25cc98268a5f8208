// Verdict equivalence between the serial DFS explorer and the parallel
// frontier engine: on every scenario the parallel engine must
// reproduce the serial ExploreResult *byte for byte* — exhaustive
// flag, state/transition counts, violations with their kinds, messages
// and replayable traces, the finals vector (content and order), and
// the min/max schedule lengths — at every thread count, with and
// without partial-order reduction.
#include "sched/explore.h"

#include <gtest/gtest.h>

#include "common/finals.h"
#include "programs/corpus.h"
#include "ptx/lower.h"
#include "sem/launch.h"

namespace cac::sched {
namespace {

using namespace cac::ptx;
using programs::VecAddLayout;

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

/// Run serial vs parallel at several thread counts, with and without
/// POR, and demand identical results throughout.
void expect_parallel_equivalent(const ptx::Program& prg,
                                const sem::KernelConfig& kc,
                                const sem::Machine& init,
                                bool stop_at_first = true) {
  for (const bool por : {false, true}) {
    ExploreOptions serial_opts;
    serial_opts.partial_order_reduction = por;
    serial_opts.stop_at_first_violation = stop_at_first;
    const ExploreResult serial = explore(prg, kc, init, serial_opts);

    for (const std::uint32_t threads : {1u, 2u, 4u, 8u}) {
      ExploreOptions par_opts = serial_opts;
      par_opts.num_threads = threads;
      expect_identical(serial, explore(prg, kc, init, par_opts),
                       "por=" + std::to_string(por) +
                           " threads=" + std::to_string(threads));
    }
  }
}

sem::Machine vecadd_machine(const ptx::Program& prg,
                            const sem::KernelConfig& kc, std::uint32_t size) {
  const VecAddLayout L;
  sem::Launch launch(prg, kc, mem::MemSizes{L.global_bytes, 0, 0, 0, 1});
  launch.param("arr_A", L.a).param("arr_B", L.b).param("arr_C", L.c)
      .param("size", size);
  for (std::uint32_t i = 0; i < size; ++i) {
    launch.global_u32(L.a + 4 * i, 3 * i + 1);
    launch.global_u32(L.b + 4 * i, 7 * i + 2);
  }
  return launch.machine();
}

TEST(ParallelExplore, VectorAddTwoWarps) {
  const ptx::Program prg = programs::vector_add_listing2();
  const sem::KernelConfig kc{{1, 1, 1}, {8, 1, 1}, 4};
  expect_parallel_equivalent(prg, kc, vecadd_machine(prg, kc, 8));
}

TEST(ParallelExplore, ReduceSharedWithBarriers) {
  const ptx::Program prg =
      ptx::load_ptx(programs::reduce_shared_ptx()).kernel("reduce");
  const sem::KernelConfig kc{{1, 1, 1}, {4, 1, 1}, 2};
  sem::Launch launch(prg, kc, mem::MemSizes{64, 0, 256, 0, 1});
  launch.param("arr_A", 0).param("out", 32);
  for (std::uint32_t i = 0; i < 4; ++i) launch.global_u32(4 * i, i + 1);
  expect_parallel_equivalent(prg, kc, launch.machine());
}

TEST(ParallelExplore, AtomicSumTwoBlocks) {
  const ptx::Program prg =
      ptx::load_ptx(programs::atomic_sum_ptx()).kernel("atomic_sum");
  const sem::KernelConfig kc{{2, 1, 1}, {2, 1, 1}, 2};
  sem::Launch launch(prg, kc, mem::MemSizes{64, 0, 0, 0, 1});
  launch.param("arr_A", 0).param("out", 32).param("size", 4);
  for (std::uint32_t i = 0; i < 4; ++i) launch.global_u32(4 * i, i + 1);
  launch.global_u32(32, 0);
  expect_parallel_equivalent(prg, kc, launch.machine());
}

TEST(ParallelExplore, RacyStoreFinalsDifferBySchedule) {
  // Two blocks store their block id to Global[0]: schedule-dependent.
  const Reg r1{TypeClass::UI, 32, 1};
  const Program prg("race",
                    {IMov{r1, op_sreg(SregKind::CtaId, Dim::X)},
                     ISt{Space::Global, UI(32), op_imm(0), r1}, IExit{}});
  const sem::KernelConfig kc{{2, 1, 1}, {1, 1, 1}, 1};
  const sem::Machine init =
      sem::Launch(prg, kc, mem::MemSizes{8, 0, 0, 0, 1}).machine();
  expect_parallel_equivalent(prg, kc, init);

  ExploreOptions opts;
  opts.num_threads = 4;
  const ExploreResult r = explore(prg, kc, init, opts);
  EXPECT_TRUE(r.exhaustive);
  EXPECT_TRUE(r.all_schedules_terminate());
  EXPECT_FALSE(r.schedule_independent());
  EXPECT_EQ(r.final_ids.size(), 2u);
}

TEST(ParallelExplore, StuckVerdictMatchesSerial) {
  const ptx::Program prg = ptx::load_ptx(programs::barrier_divergence_ptx())
                               .kernel("barrier_divergence");
  const sem::KernelConfig kc{{1, 1, 1}, {4, 1, 1}, 4};
  const sem::Machine init = sem::Launch(prg, kc, mem::MemSizes{}).machine();
  expect_parallel_equivalent(prg, kc, init, /*stop_at_first=*/true);
  expect_parallel_equivalent(prg, kc, init, /*stop_at_first=*/false);
}

TEST(ParallelExplore, CycleVerdictMatchesSerial) {
  const Program prg("spin", {IBra{0}});
  const sem::KernelConfig kc{{1, 1, 1}, {2, 1, 1}, 2};
  const sem::Machine init = sem::Launch(prg, kc, mem::MemSizes{}).machine();
  expect_parallel_equivalent(prg, kc, init);

  ExploreOptions opts;
  opts.num_threads = 2;
  const ExploreResult r = explore(prg, kc, init, opts);
  ASSERT_FALSE(r.violations.empty());
  EXPECT_EQ(r.violations[0].kind, Violation::Kind::Cycle);
}

TEST(ParallelExplore, FaultVerdictMatchesSerial) {
  const Reg r1{TypeClass::UI, 32, 1};
  const Program prg("oob",
                    {ILd{Space::Global, UI(32), r1, op_imm(1000)}, IExit{}});
  const sem::KernelConfig kc{{1, 1, 1}, {2, 1, 1}, 2};
  const sem::Machine init =
      sem::Launch(prg, kc, mem::MemSizes{16, 0, 0, 0, 1}).machine();
  expect_parallel_equivalent(prg, kc, init);
}

TEST(ParallelExplore, ManyWarpsStraightline) {
  // 4 independent warps: a dense interleaving lattice — the kind of
  // graph the frontier engine is built for.
  const ptx::Program prg = programs::straightline_program(2);
  const sem::KernelConfig kc{{1, 1, 1}, {8, 1, 1}, 2};
  const sem::Machine init = sem::Launch(prg, kc, mem::MemSizes{}).machine();
  expect_parallel_equivalent(prg, kc, init);
}

TEST(ParallelExplore, StateLimitStillNonExhaustive) {
  // Under a state cap both engines must report non-exhaustive (the
  // exact cut may differ; see docs/explorer.md).
  const ptx::Program prg = programs::straightline_program(10);
  const sem::KernelConfig kc{{2, 1, 1}, {4, 1, 1}, 2};
  const sem::Machine init = sem::Launch(prg, kc, mem::MemSizes{}).machine();
  ExploreOptions opts;
  opts.max_states = 10;
  opts.stop_at_first_violation = false;
  opts.num_threads = 4;
  const ExploreResult r = explore(prg, kc, init, opts);
  EXPECT_FALSE(r.exhaustive);
  EXPECT_LE(r.states_visited, 10u);
}

TEST(ParallelExplore, DepthBoundStillReported) {
  const ptx::Program prg = programs::straightline_program(50);
  const sem::KernelConfig kc{{1, 1, 1}, {2, 1, 1}, 2};
  const sem::Machine init = sem::Launch(prg, kc, mem::MemSizes{}).machine();
  ExploreOptions opts;
  opts.max_depth = 5;
  opts.num_threads = 4;
  const ExploreResult r = explore(prg, kc, init, opts);
  EXPECT_FALSE(r.exhaustive);
  ASSERT_FALSE(r.violations.empty());
  EXPECT_EQ(r.violations[0].kind, Violation::Kind::DepthExceeded);
}

}  // namespace
}  // namespace cac::sched
