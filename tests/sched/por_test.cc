// Soundness cross-checks for the persistent-set partial-order
// reduction: on every corpus scenario, POR must reach the same verdict
// and the same set of final MEMORY states as full exploration, with
// (usually far) fewer intermediate states.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/finals.h"
#include "programs/corpus.h"
#include "ptx/lower.h"
#include "sched/explore.h"
#include "sem/launch.h"

namespace cac::sched {
namespace {

struct Outcome {
  bool exhaustive;
  std::size_t violation_kinds;  // bitmask of kinds seen
  std::set<std::uint64_t> final_memory_hashes;
  std::uint64_t states;
};

Outcome summarize(const ExploreResult& r) {
  Outcome o{r.exhaustive, 0, {}, r.states_visited};
  for (const Violation& v : r.violations) {
    o.violation_kinds |= 1u << static_cast<unsigned>(v.kind);
  }
  for (const sem::Machine& m : finals_of(r)) {
    o.final_memory_hashes.insert(m.memory.hash());
  }
  return o;
}

void expect_por_equivalent(const ptx::Program& prg,
                           const sem::KernelConfig& kc,
                           const sem::Machine& init,
                           bool expect_reduction = true) {
  ExploreOptions full;
  full.stop_at_first_violation = false;
  ExploreOptions por = full;
  por.partial_order_reduction = true;

  const Outcome a = summarize(explore(prg, kc, init, full));
  const Outcome b = summarize(explore(prg, kc, init, por));
  EXPECT_EQ(a.exhaustive, b.exhaustive);
  EXPECT_EQ(a.violation_kinds, b.violation_kinds);
  EXPECT_EQ(a.final_memory_hashes, b.final_memory_hashes);
  EXPECT_LE(b.states, a.states);
  if (expect_reduction && a.states > 30) {
    EXPECT_LT(b.states, a.states) << "POR reduced nothing";
  }
}

TEST(PartialOrderReduction, VectorAddTwoWarps) {
  const ptx::Program prg = programs::vector_add_listing2();
  const programs::VecAddLayout L;
  const sem::KernelConfig kc{{1, 1, 1}, {8, 1, 1}, 4};
  sem::Launch launch(prg, kc, mem::MemSizes{L.global_bytes, 0, 0, 0, 1});
  launch.param("arr_A", L.a).param("arr_B", L.b).param("arr_C", L.c)
      .param("size", 8);
  for (std::uint32_t i = 0; i < 8; ++i) {
    launch.global_u32(L.a + 4 * i, i);
    launch.global_u32(L.b + 4 * i, i);
  }
  expect_por_equivalent(prg, kc, launch.machine());
}

TEST(PartialOrderReduction, StraightlineCollapsesToOnePath) {
  const ptx::Program prg = programs::straightline_program(6);
  const sem::KernelConfig kc{{1, 1, 1}, {8, 1, 1}, 2};  // 4 warps
  const sem::Machine init = sem::Launch(prg, kc, mem::MemSizes{}).machine();
  ExploreOptions por;
  por.partial_order_reduction = true;
  const ExploreResult r = explore(prg, kc, init, por);
  EXPECT_TRUE(r.exhaustive);
  EXPECT_TRUE(r.schedule_independent());
  // Every instruction is register-local: the schedule graph is a chain.
  EXPECT_EQ(r.states_visited, 4u * 8u + 1u);
}

TEST(PartialOrderReduction, RacyProgramKeepsBothFinals) {
  // POR must NOT collapse genuine store races.
  const ptx::Reg r1{ptx::TypeClass::UI, 32, 1};
  const ptx::Program prg(
      "race", {ptx::IMov{r1, ptx::op_sreg(ptx::SregKind::CtaId, ptx::Dim::X)},
               ptx::ISt{ptx::Space::Global, ptx::UI(32), ptx::op_imm(0), r1},
               ptx::IExit{}});
  const sem::KernelConfig kc{{2, 1, 1}, {1, 1, 1}, 1};
  const sem::Machine init =
      sem::Launch(prg, kc, mem::MemSizes{8, 0, 0, 0, 1}).machine();
  ExploreOptions por;
  por.partial_order_reduction = true;
  const ExploreResult r = explore(prg, kc, init, por);
  EXPECT_TRUE(r.exhaustive);
  EXPECT_EQ(r.final_ids.size(), 2u);
  expect_por_equivalent(prg, kc, init, /*expect_reduction=*/false);
}

TEST(PartialOrderReduction, BarrierReduction) {
  const ptx::Program prg =
      ptx::load_ptx(programs::reduce_shared_ptx()).kernel("reduce");
  const sem::KernelConfig kc{{1, 1, 1}, {4, 1, 1}, 2};
  sem::Launch launch(prg, kc, mem::MemSizes{64, 0, 256, 0, 1});
  launch.param("arr_A", 0).param("out", 32);
  for (std::uint32_t i = 0; i < 4; ++i) launch.global_u32(4 * i, i + 1);
  expect_por_equivalent(prg, kc, launch.machine());
}

TEST(PartialOrderReduction, NoBarrierRaceStillDetected) {
  const ptx::Program prg =
      ptx::load_ptx(programs::reduce_shared_nobar_ptx()).kernel("reduce");
  const sem::KernelConfig kc{{1, 1, 1}, {4, 1, 1}, 2};
  sem::Launch launch(prg, kc, mem::MemSizes{64, 0, 256, 0, 1});
  launch.param("arr_A", 0).param("out", 32);
  for (std::uint32_t i = 0; i < 4; ++i) launch.global_u32(4 * i, i + 1);
  // Both explorations must agree that the result is schedule-dependent.
  ExploreOptions por;
  por.partial_order_reduction = true;
  const ExploreResult r = explore(prg, kc, launch.machine(), por);
  EXPECT_TRUE(r.exhaustive);
  EXPECT_GT(r.final_ids.size(), 1u);
  expect_por_equivalent(prg, kc, launch.machine());
}

TEST(PartialOrderReduction, DeadlockStillDetected) {
  const ptx::Program prg = ptx::load_ptx(programs::barrier_divergence_ptx())
                               .kernel("barrier_divergence");
  const sem::KernelConfig kc{{1, 1, 1}, {4, 1, 1}, 2};
  const sem::Machine init = sem::Launch(prg, kc, mem::MemSizes{}).machine();
  ExploreOptions por;
  por.partial_order_reduction = true;
  por.stop_at_first_violation = false;
  const ExploreResult r = explore(prg, kc, init, por);
  ASSERT_FALSE(r.violations.empty());
  EXPECT_EQ(r.violations[0].kind, Violation::Kind::Stuck);
  expect_por_equivalent(prg, kc, init);
}

TEST(PartialOrderReduction, AtomicsAreBranchPoints) {
  const ptx::Program prg =
      ptx::load_ptx(programs::atomic_sum_ptx()).kernel("atomic_sum");
  const sem::KernelConfig kc{{2, 1, 1}, {2, 1, 1}, 2};
  sem::Launch launch(prg, kc, mem::MemSizes{64, 0, 0, 0, 1});
  launch.param("arr_A", 0).param("out", 32).param("size", 4);
  for (std::uint32_t i = 0; i < 4; ++i) launch.global_u32(4 * i, i + 1);
  launch.global_u32(32, 0);
  expect_por_equivalent(prg, kc, launch.machine());
}

}  // namespace
}  // namespace cac::sched
