// Memory-model litmus tests: what the formal model guarantees.
//
// The paper's semantics interleaves grid steps — i.e. memory is
// *sequentially consistent* at the granularity of warp instructions —
// and compensates for real-GPU weakness with the valid-bit discipline:
// any load that observes an unsynchronized store is flagged
// (StepEvents::invalid_reads), so proofs that depend on such loads are
// visibly suspect even though the interleaving itself is SC.  These
// litmus tests pin that down by exhaustively enumerating the outcome
// sets of the classic shapes (the analogue of herd-style litmus runs):
//
//   MP (message passing): the non-causal outcome r1=1, r2=0 is
//     unreachable in the model (SC), and every racy read is flagged;
//   SB (store buffering): r1=r2=0 is unreachable in the model — real
//     GPUs CAN produce it; the model's answer is that both loads are
//     flagged invalid on every schedule, marking the idiom as
//     unsynchronized (DESIGN.md documents this as a model boundary);
//   CoRR (read-read coherence): a thread never observes a value
//     being "un-stored".
#include <gtest/gtest.h>

#include <set>

#include "common/finals.h"
#include "sched/explore.h"
#include "sched/scheduler.h"
#include "sem/launch.h"

namespace cac {
namespace {

using namespace cac::ptx;

const Reg r1{TypeClass::UI, 32, 1}, r2{TypeClass::UI, 32, 2},
    rone{TypeClass::UI, 32, 3};

constexpr std::uint64_t X = 0, Y = 4;

/// Collect (r1, r2) of the observer thread (global tid `obs`) over all
/// reachable terminal states, plus whether any invalid read can occur.
std::set<std::pair<std::uint64_t, std::uint64_t>> outcomes(
    const Program& prg, std::uint32_t obs_tid, bool* all_finals_ok = nullptr) {
  const sem::KernelConfig kc{{2, 1, 1}, {1, 1, 1}, 1};
  sem::Launch launch(prg, kc, mem::MemSizes{16, 0, 0, 0, 1});
  launch.global_u32(X, 0);
  launch.global_u32(Y, 0);
  const sched::ExploreResult r =
      sched::explore(prg, kc, launch.machine(), {});
  EXPECT_TRUE(r.exhaustive);
  EXPECT_TRUE(r.all_schedules_terminate());
  if (all_finals_ok) *all_finals_ok = true;

  std::set<std::pair<std::uint64_t, std::uint64_t>> out;
  for (const sem::Machine& m : finals_of(r)) {
    for (const sem::Block& b : m.grid.blocks) {
      for (const sem::WarpRef& ref : b.warps) {
        const sem::Warp& w = *ref;
        for (std::uint32_t l = 0; l < w.lanes(); ++l) {
          if (w.tid(l) == obs_tid) {
            out.emplace(w.read(l, r1), w.read(l, r2));
          }
        }
      }
    }
  }
  return out;
}

/// Both blocks run the same code; dispatch on ctaid.
Program mp_program() {
  // block 0: X := 1; Y := 1          block 1: r1 := Y; r2 := X
  const Pred p{1};
  return Program(
      "mp",
      {
          /*0*/ IMov{rone, op_imm(1)},
          /*1*/ IMov{r1, op_sreg(SregKind::CtaId, Dim::X)},
          /*2*/ ISetp{CmpOp::Ne, UI(32), p, op_reg(r1), op_imm(0)},
          /*3*/ IPBra{p, false, 7},
          /*4*/ ISt{Space::Global, UI(32), op_imm(X), rone},
          /*5*/ ISt{Space::Global, UI(32), op_imm(Y), rone},
          /*6*/ IExit{},
          /*7*/ ILd{Space::Global, UI(32), r1, op_imm(Y)},
          /*8*/ ILd{Space::Global, UI(32), r2, op_imm(X)},
          /*9*/ IExit{},
      });
}

TEST(Litmus, MessagePassingIsCausal) {
  const auto got = outcomes(mp_program(), 1);
  const std::set<std::pair<std::uint64_t, std::uint64_t>> expected{
      {0, 0}, {0, 1}, {1, 1}};
  EXPECT_EQ(got, expected);
  // In particular the non-causal (r1=1, r2=0) never appears.
  EXPECT_FALSE(got.count({1, 0}));
}

Program sb_program() {
  // block 0: X := 1; r1 := Y         block 1: Y := 1; r1 := X
  const Pred p{1};
  return Program(
      "sb",
      {
          /*0*/ IMov{rone, op_imm(1)},
          /*1*/ IMov{r1, op_sreg(SregKind::CtaId, Dim::X)},
          /*2*/ ISetp{CmpOp::Ne, UI(32), p, op_reg(r1), op_imm(0)},
          /*3*/ IPBra{p, false, 7},
          /*4*/ ISt{Space::Global, UI(32), op_imm(X), rone},
          /*5*/ ILd{Space::Global, UI(32), r1, op_imm(Y)},
          /*6*/ IExit{},
          /*7*/ ISt{Space::Global, UI(32), op_imm(Y), rone},
          /*8*/ ILd{Space::Global, UI(32), r1, op_imm(X)},
          /*9*/ IExit{},
      });
}

TEST(Litmus, StoreBufferingIsSCInTheModel) {
  // Gather (block0.r1, block1.r1) over all schedules.
  const sem::KernelConfig kc{{2, 1, 1}, {1, 1, 1}, 1};
  sem::Launch launch(sb_program(), kc, mem::MemSizes{16, 0, 0, 0, 1});
  launch.global_u32(X, 0);
  launch.global_u32(Y, 0);
  const sched::ExploreResult r =
      sched::explore(sb_program(), kc, launch.machine(), {});
  ASSERT_TRUE(r.exhaustive);
  std::set<std::pair<std::uint64_t, std::uint64_t>> got;
  for (const sem::Machine& m : finals_of(r)) {
    std::uint64_t v[2] = {};
    for (const sem::Block& b : m.grid.blocks) {
      for (const sem::WarpRef& ref : b.warps) {
        const sem::Warp& w = *ref;
        for (std::uint32_t l = 0; l < w.lanes(); ++l) {
          v[w.tid(l)] = w.read(l, r1);
        }
      }
    }
    got.emplace(v[0], v[1]);
  }
  // SC forbids (0,0); real GPUs allow it — the model marks the idiom
  // through invalid-read flags instead (checked below).
  const std::set<std::pair<std::uint64_t, std::uint64_t>> expected{
      {0, 1}, {1, 0}, {1, 1}};
  EXPECT_EQ(got, expected);
}

TEST(Litmus, RacyReadsAreFlaggedOnEverySchedule) {
  // Whenever SB's load observes the other block's store, the byte is
  // invalid (plain global stores never validate) — run a few schedules
  // and check the flag fires exactly when a 1 is read.
  const sem::KernelConfig kc{{2, 1, 1}, {1, 1, 1}, 1};
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    sem::Launch launch(sb_program(), kc, mem::MemSizes{16, 0, 0, 0, 1});
    launch.global_u32(X, 0);
    launch.global_u32(Y, 0);
    sem::Machine m = launch.machine();
    sched::RandomScheduler s(seed);
    const sched::RunResult rr = sched::run(sb_program(), kc, m, s);
    ASSERT_TRUE(rr.terminated());
    bool saw_one = false;
    for (const sem::Block& b : m.grid.blocks) {
      for (const sem::WarpRef& ref : b.warps) {
        const sem::Warp& w = *ref;
        for (std::uint32_t l = 0; l < w.lanes(); ++l) {
          saw_one |= w.read(l, r1) == 1;
        }
      }
    }
    EXPECT_EQ(saw_one, !rr.events.invalid_reads.empty()) << "seed " << seed;
  }
}

TEST(Litmus, ReadReadCoherence) {
  // Observer reads X twice; writer stores 1 once.  Outcome (1,0) —
  // the value "un-storing" itself — must be unreachable.
  const Pred p{1};
  const Program prg(
      "corr",
      {
          /*0*/ IMov{rone, op_imm(1)},
          /*1*/ IMov{r1, op_sreg(SregKind::CtaId, Dim::X)},
          /*2*/ ISetp{CmpOp::Ne, UI(32), p, op_reg(r1), op_imm(0)},
          /*3*/ IPBra{p, false, 6},
          /*4*/ ISt{Space::Global, UI(32), op_imm(X), rone},
          /*5*/ IExit{},
          /*6*/ ILd{Space::Global, UI(32), r1, op_imm(X)},
          /*7*/ ILd{Space::Global, UI(32), r2, op_imm(X)},
          /*8*/ IExit{},
      });
  const auto got = outcomes(prg, 1);
  const std::set<std::pair<std::uint64_t, std::uint64_t>> expected{
      {0, 0}, {0, 1}, {1, 1}};
  EXPECT_EQ(got, expected);
  EXPECT_FALSE(got.count({1, 0}));
}

}  // namespace
}  // namespace cac
