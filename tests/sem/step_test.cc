// Unit tests for the Fig. 1 / Fig. 3 derivation rules, one rule at a
// time, on hand-built warps.
#include "sem/step.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "sem/launch.h"

namespace cac::sem {
namespace {

using namespace cac::ptx;

const Reg r1{TypeClass::UI, 32, 1}, r2{TypeClass::UI, 32, 2},
    r3{TypeClass::UI, 32, 3};
const Reg rs{TypeClass::SI, 32, 4};
const Reg rd1{TypeClass::UI, 64, 1};
const Pred p1{1};

KernelConfig kc4() { return {{1, 1, 1}, {4, 1, 1}, 4}; }

mem::Memory mem64() {
  mem::MemSizes s;
  s.global = 64;
  s.constant = 16;
  s.shared = 32;
  s.param = 16;
  return mem::Memory(s);
}

/// One uniform 4-thread warp at pc 0, with r1 = tid preloaded.
Warp warp4() {
  Warp w = make_warp(0, 4);
  for (std::uint32_t l = 0; l < w.lanes(); ++l) w.write(l, r1, w.tid(l));
  return w;
}

/// An n-thread warp (tids from 0) diverged into Div(Leaf(pc_l, left),
/// Leaf(pc_r, right)).
Warp split_warp(std::uint32_t n, std::uint32_t pc_l,
                const std::vector<std::uint32_t>& left, std::uint32_t pc_r,
                const std::vector<std::uint32_t>& right) {
  Warp w = make_warp(0, n);
  w.set_tree(DivTree::div(DivTree::leaf(n, pc_l, left),
                          DivTree::leaf(n, pc_r, right)));
  return w;
}

/// A block holding `warps` as fresh handles.
Block block_of(std::vector<Warp> warps) {
  Block b;
  for (Warp& w : warps) {
    b.warps.push_back(std::make_shared<Warp>(std::move(w)));
  }
  return b;
}

StepResult step1(const Program& prg, Warp& w, mem::Memory& mu,
                 StepEvents* ev = nullptr, const StepOptions& opts = {}) {
  return step_warp(prg, kc4(), 0, w, mu, opts, ev);
}

TEST(StepRules, NopAdvancesPcOnly) {
  const Program prg("t", {INop{}, IExit{}});
  Warp w = warp4();
  auto mu = mem64();
  Warp before = w;
  ASSERT_TRUE(step1(prg, w, mu).ok());
  EXPECT_EQ(w.uni_pc(), 1u);
  before.set_uni_pc(1);
  EXPECT_EQ(w, before);  // registers and predicates untouched
}

TEST(StepRules, BopPerThread) {
  const Program prg(
      "t", {IBop{BinOp::Add, UI(32), r2, op_reg(r1), op_imm(10)}, IExit{}});
  Warp w = warp4();
  auto mu = mem64();
  ASSERT_TRUE(step1(prg, w, mu).ok());
  for (std::uint32_t l = 0; l < w.lanes(); ++l) {
    EXPECT_EQ(w.read(l, r2), w.tid(l) + 10);
  }
}

TEST(StepRules, BopWidthWraps) {
  const Program prg(
      "t", {IMov{r1, op_imm(0xffffffff)},
            IBop{BinOp::Add, UI(32), r2, op_reg(r1), op_imm(1)}, IExit{}});
  Warp w = make_warp(0, 1);
  auto mu = mem64();
  ASSERT_TRUE(step1(prg, w, mu).ok());
  ASSERT_TRUE(step1(prg, w, mu).ok());
  EXPECT_EQ(w.read(0, r2), 0u);
}

TEST(StepRules, MulWideSignedNegative) {
  // mul.wide.s32 -2, 4 = -8 as a 64-bit value (the Listing-2 address
  // computation depends on this sign extension).
  const Program prg(
      "t", {IMov{rs, op_imm(-2)},
            IBop{BinOp::MulWide, SI(32), rd1, op_reg(rs), op_imm(4)},
            IExit{}});
  Warp w = make_warp(0, 1);
  auto mu = mem64();
  ASSERT_TRUE(step1(prg, w, mu).ok());
  ASSERT_TRUE(step1(prg, w, mu).ok());
  EXPECT_EQ(w.read(0, rd1), 0xfffffffffffffff8ull);
}

TEST(StepRules, MulWideUnsignedZeroExtends) {
  const Program prg(
      "t", {IMov{r1, op_imm(0x80000000)},
            IBop{BinOp::MulWide, UI(32), rd1, op_reg(r1), op_imm(2)},
            IExit{}});
  Warp w = make_warp(0, 1);
  auto mu = mem64();
  step1(prg, w, mu);
  step1(prg, w, mu);
  EXPECT_EQ(w.read(0, rd1), 0x100000000ull);
}

TEST(StepRules, DivByZeroIsAllOnes) {
  const Program prg(
      "t", {IBop{BinOp::Div, UI(32), r2, op_imm(5), op_imm(0)}, IExit{}});
  Warp w = make_warp(0, 1);
  auto mu = mem64();
  step1(prg, w, mu);
  EXPECT_EQ(w.read(0, r2), 0xffffffffu);
}

TEST(StepRules, TopMadLo) {
  const Program prg(
      "t", {ITop{TerOp::MadLo, SI(32), r2, op_reg(r1), op_imm(3), op_imm(7)},
            IExit{}});
  Warp w = warp4();
  auto mu = mem64();
  step1(prg, w, mu);
  for (std::uint32_t l = 0; l < w.lanes(); ++l) {
    EXPECT_EQ(w.read(l, r2), w.tid(l) * 3 + 7);
  }
}

TEST(StepRules, MovFromSreg) {
  const Program prg("t", {IMov{r2, op_sreg(SregKind::NTid, Dim::X)}, IExit{}});
  Warp w = warp4();
  auto mu = mem64();
  step1(prg, w, mu);
  for (std::uint32_t l = 0; l < w.lanes(); ++l) EXPECT_EQ(w.read(l, r2), 4u);
}

TEST(StepRules, SetpSignedVsUnsigned) {
  const Program prg(
      "t", {IMov{rs, op_imm(-1)},
            ISetp{CmpOp::Lt, SI(32), p1, op_reg(rs), op_imm(0)}, IExit{}});
  Warp w = make_warp(0, 1);
  auto mu = mem64();
  step1(prg, w, mu);
  step1(prg, w, mu);
  EXPECT_TRUE(w.pred(0, p1));

  const Program prg2(
      "t", {IMov{r1, op_imm(-1)},
            ISetp{CmpOp::Lt, UI(32), p1, op_reg(r1), op_imm(0)}, IExit{}});
  Warp w2 = make_warp(0, 1);
  step_warp(prg2, kc4(), 0, w2, mu);
  step_warp(prg2, kc4(), 0, w2, mu);
  EXPECT_FALSE(w2.pred(0, p1));  // 0xffffffff is large unsigned
}

TEST(StepRules, BraJumps) {
  const Program prg("t", {IBra{2}, INop{}, IExit{}});
  Warp w = warp4();
  auto mu = mem64();
  step1(prg, w, mu);
  EXPECT_EQ(w.uni_pc(), 2u);
}

TEST(StepRules, PBraSplitsByPredicate) {
  // Threads 0,1 have p1 set; they take the branch.
  const Program prg("t", {IPBra{p1, false, 3}, INop{}, INop{}, IExit{}});
  Warp w = warp4();
  for (std::uint32_t l = 0; l < w.lanes(); ++l) {
    w.write_pred(l, p1, w.tid(l) < 2);
  }
  auto mu = mem64();
  step1(prg, w, mu);
  ASSERT_TRUE(w.divergent());
  // Fall-through side is the left (executes first), taken side right.
  EXPECT_EQ(w.left().uni_pc(), 1u);
  EXPECT_EQ(w.left().lanes().size(), 2u);
  EXPECT_EQ(w.right().uni_pc(), 3u);
  EXPECT_EQ(w.tid(w.right().lanes()[0]), 0u);
}

TEST(StepRules, PBraAllTakenStaysUniform) {
  const Program prg("t", {IPBra{p1, false, 2}, INop{}, IExit{}});
  Warp w = warp4();
  for (std::uint32_t l = 0; l < w.lanes(); ++l) w.write_pred(l, p1, true);
  auto mu = mem64();
  step1(prg, w, mu);
  EXPECT_FALSE(w.divergent());
  EXPECT_EQ(w.uni_pc(), 2u);
}

TEST(StepRules, PBraNegated) {
  const Program prg("t", {IPBra{p1, true, 2}, INop{}, IExit{}});
  Warp w = warp4();
  for (std::uint32_t l = 0; l < w.lanes(); ++l) w.write_pred(l, p1, true);
  auto mu = mem64();
  step1(prg, w, mu);
  EXPECT_FALSE(w.divergent());
  EXPECT_EQ(w.uni_pc(), 1u);  // @!p with p=true falls through
}

TEST(StepRules, DivRuleExecutesLeftmostOnly) {
  const Program prg(
      "t", {IBop{BinOp::Add, UI(32), r2, op_reg(r2), op_imm(1)},
            IBop{BinOp::Add, UI(32), r2, op_reg(r2), op_imm(1)}, IExit{}});
  Warp w = split_warp(4, 0, {0, 1}, 0, {2, 3});
  auto mu = mem64();
  step1(prg, w, mu);
  ASSERT_TRUE(w.divergent());
  EXPECT_EQ(w.left().uni_pc(), 1u);
  EXPECT_EQ(w.right().uni_pc(), 0u);  // untouched
  EXPECT_EQ(w.read(w.left().lanes()[0], r2), 1u);
  EXPECT_EQ(w.read(w.right().lanes()[0], r2), 0u);
}

TEST(StepRules, SyncInstructionMergesWholeTree) {
  const Program prg("t", {ISync{}, IExit{}});
  Warp w = split_warp(4, 0, {2, 3}, 0, {0, 1});
  auto mu = mem64();
  step1(prg, w, mu);
  EXPECT_FALSE(w.divergent());
  EXPECT_EQ(w.uni_pc(), 1u);
  EXPECT_EQ(w.tids()[0], 0u);  // canonical tid order
}

TEST(StepRules, LdStoresRoundTrip) {
  const Program prg(
      "t",
      {IBop{BinOp::Mul, UI(32), r2, op_reg(r1), op_imm(4)},  // addr = tid*4
       ISt{Space::Global, UI(32), op_reg(r2), r1},
       ILd{Space::Global, UI(32), r3, op_reg(r2)}, IExit{}});
  Warp w = warp4();
  auto mu = mem64();
  step1(prg, w, mu);
  step1(prg, w, mu);
  step1(prg, w, mu);
  for (std::uint32_t l = 0; l < w.lanes(); ++l) {
    EXPECT_EQ(w.read(l, r3), w.tid(l));
    EXPECT_EQ(mu.load(Space::Global, w.tid(l) * 4, 4), w.tid(l));
  }
}

TEST(StepRules, GlobalStoreLeavesInvalidBit) {
  const Program prg("t", {ISt{Space::Global, UI(32), op_imm(0), r1}, IExit{}});
  Warp w = make_warp(0, 1);
  auto mu = mem64();
  step1(prg, w, mu);
  EXPECT_FALSE(mu.all_valid(Space::Global, 0, 4));
}

TEST(StepRules, LdOfInvalidByteEmitsEvent) {
  const Program prg("t", {ISt{Space::Global, UI(32), op_imm(0), r1},
                          ILd{Space::Global, UI(32), r2, op_imm(0)}, IExit{}});
  Warp w = make_warp(0, 1);
  auto mu = mem64();
  StepEvents ev;
  step1(prg, w, mu, &ev);
  step1(prg, w, mu, &ev);
  EXPECT_FALSE(ev.invalid_reads.empty());
  EXPECT_EQ(ev.invalid_reads[0].space, Space::Global);
}

TEST(StepRules, LdOfInitializedDataIsClean) {
  const Program prg("t", {ILd{Space::Global, UI(32), r2, op_imm(8)}, IExit{}});
  Warp w = make_warp(0, 1);
  auto mu = mem64();
  mu.init_u32(Space::Global, 8, 77);
  StepEvents ev;
  step1(prg, w, mu, &ev);
  EXPECT_TRUE(ev.invalid_reads.empty());
  EXPECT_EQ(w.read(0, r2), 77u);
}

TEST(StepRules, LdSignExtendsSignedLoads) {
  const Program prg("t", {ILd{Space::Global, SI(8), r2, op_imm(0)}, IExit{}});
  Warp w = make_warp(0, 1);
  auto mu = mem64();
  std::uint8_t b = 0x80;
  mu.write_init(Space::Global, 0, &b, 1);
  step1(prg, w, mu);
  EXPECT_EQ(w.read(0, r2), 0xffffff80u);
}

TEST(StepRules, OutOfBoundsLoadFaults) {
  const Program prg("t", {ILd{Space::Global, UI(32), r2, op_imm(62)}, IExit{}});
  Warp w = make_warp(0, 1);
  auto mu = mem64();
  const StepResult r = step1(prg, w, mu);
  EXPECT_FALSE(r.ok());
  EXPECT_NE(r.fault.find("out-of-bounds"), std::string::npos);
  EXPECT_NE(r.fault.find("Global"), std::string::npos);
}

TEST(StepRules, StoreToReadOnlySpaceFaults) {
  const Program prg("t", {ISt{Space::Const, UI(32), op_imm(0), r1}, IExit{}});
  Warp w = make_warp(0, 1);
  auto mu = mem64();
  EXPECT_FALSE(step1(prg, w, mu).ok());
}

TEST(StepRules, UninitReadEmitsEvent) {
  const Program prg(
      "t", {IBop{BinOp::Add, UI(32), r2, op_reg(r3), op_imm(0)}, IExit{}});
  Warp w = make_warp(0, 1);
  auto mu = mem64();
  StepEvents ev;
  step1(prg, w, mu, &ev);
  ASSERT_EQ(ev.uninit_reads.size(), 1u);
  EXPECT_EQ(ev.uninit_reads[0].reg, r3);
}

TEST(StepRules, StoreConflictDetectedAndOrderDependent) {
  // All four lanes store their tid to address 0.
  const Program prg("t", {ISt{Space::Global, UI(32), op_imm(0), r1}, IExit{}});
  auto mu_a = mem64();
  auto mu_d = mem64();
  StepEvents ev;
  {
    Warp w = warp4();
    StepOptions o;
    o.order.kind = ThreadOrder::Kind::Ascending;
    step1(prg, w, mu_a, &ev, o);
  }
  EXPECT_FALSE(ev.store_conflicts.empty());
  {
    Warp w = warp4();
    StepOptions o;
    o.order.kind = ThreadOrder::Kind::Descending;
    step1(prg, w, mu_d, nullptr, o);
  }
  EXPECT_EQ(mu_a.load(Space::Global, 0, 4), 3u);  // last ascending lane
  EXPECT_EQ(mu_d.load(Space::Global, 0, 4), 0u);  // last descending lane
}

TEST(StepRules, DisjointStoresAreOrderIndependent) {
  const Program prg(
      "t",
      {IBop{BinOp::Mul, UI(32), r2, op_reg(r1), op_imm(4)},
       ISt{Space::Global, UI(32), op_reg(r2), r1}, IExit{}});
  mem::Memory mus[3] = {mem64(), mem64(), mem64()};
  const ThreadOrder::Kind kinds[] = {ThreadOrder::Kind::Ascending,
                                     ThreadOrder::Kind::Descending,
                                     ThreadOrder::Kind::Permuted};
  for (int i = 0; i < 3; ++i) {
    Warp w = warp4();
    StepOptions o;
    o.order.kind = kinds[i];
    o.order.perm = {2, 0, 3, 1};
    StepEvents ev;
    step1(prg, w, mus[i], &ev, o);
    step1(prg, w, mus[i], &ev, o);
    EXPECT_TRUE(ev.store_conflicts.empty());
  }
  EXPECT_EQ(mus[0], mus[1]);
  EXPECT_EQ(mus[0], mus[2]);
}

TEST(StepRules, AtomAddSerializesAndCommitsValid) {
  const Program prg(
      "t", {IAtom{AtomOp::Add, Space::Global, UI(32), r2, op_imm(0),
                  op_imm(1), op_imm(0)},
            IExit{}});
  Warp w = warp4();
  auto mu = mem64();
  mu.init_u32(Space::Global, 0, 100);
  step1(prg, w, mu);
  EXPECT_EQ(mu.load(Space::Global, 0, 4), 104u);
  EXPECT_TRUE(mu.all_valid(Space::Global, 0, 4));
  // Old values observed in sequence: 100,101,102,103 in ascending order.
  std::vector<std::uint64_t> olds;
  for (std::uint32_t l = 0; l < w.lanes(); ++l) olds.push_back(w.read(l, r2));
  std::sort(olds.begin(), olds.end());
  EXPECT_EQ(olds, (std::vector<std::uint64_t>{100, 101, 102, 103}));
}

TEST(StepRules, AtomCas) {
  const Program prg(
      "t", {IAtom{AtomOp::Cas, Space::Global, UI(32), r2, op_imm(0),
                  op_imm(0), op_reg(r1)},
            IExit{}});
  // All lanes CAS(0 -> tid); only the first lane in order succeeds.
  Warp w = warp4();
  for (std::uint32_t l = 0; l < w.lanes(); ++l) w.write(l, r1, w.tid(l) + 10);
  auto mu = mem64();
  mu.init_u32(Space::Global, 0, 0);
  step1(prg, w, mu);
  EXPECT_EQ(mu.load(Space::Global, 0, 4), 10u);  // lane 0 won
}

TEST(StepRules, SelpPicksByPredicate) {
  const Program prg(
      "t", {ISelp{UI(32), r2, op_imm(7), op_imm(9), p1}, IExit{}});
  Warp w = warp4();
  for (std::uint32_t l = 0; l < w.lanes(); ++l) {
    w.write_pred(l, p1, w.tid(l) % 2 == 0);
  }
  auto mu = mem64();
  step1(prg, w, mu);
  EXPECT_EQ(w.read(0, r2), 7u);
  EXPECT_EQ(w.read(1, r2), 9u);
}

TEST(StepRules, SharedAccessesUseBlockBank) {
  const Program prg("t", {ISt{Space::Shared, UI(32), op_imm(0), r1},
                          ILd{Space::Shared, UI(32), r2, op_imm(0)}, IExit{}});
  mem::MemSizes s;
  s.shared = 32;
  s.shared_banks = 2;
  mem::Memory mu(s);
  Warp w0 = make_warp(0, 1);
  w0.write(0, r1, 11);
  Warp w1 = make_warp(4, 1);
  w1.write(0, r1, 22);
  // Same block-local address 0, different blocks.
  ASSERT_TRUE(step_warp(prg, kc4(), 0, w0, mu).ok());
  ASSERT_TRUE(step_warp(prg, kc4(), 1, w1, mu).ok());
  EXPECT_EQ(mu.load(Space::Shared, mu.shared_base(0), 4), 11u);
  EXPECT_EQ(mu.load(Space::Shared, mu.shared_base(1), 4), 22u);
}

TEST(StepRules, SharedOutOfBankFaults) {
  const Program prg("t", {ISt{Space::Shared, UI(32), op_imm(30), r1}, IExit{}});
  mem::MemSizes s;
  s.shared = 32;
  s.shared_banks = 2;
  mem::Memory mu(s);
  Warp w = make_warp(0, 1);
  EXPECT_FALSE(step_warp(prg, kc4(), 0, w, mu).ok());
}

TEST(StepRules, StepAtBarOrExitThrows) {
  const Program prg("t", {IBar{}, IExit{}});
  Warp w = make_warp(0, 1);
  auto mu = mem64();
  EXPECT_THROW(step1(prg, w, mu), cac::KernelError);
  w.set_uni_pc(1);
  EXPECT_THROW(step1(prg, w, mu), cac::KernelError);
}

// --- Fig. 3 block/grid rules ---

TEST(BlockRules, EligibilityExcludesBarAndExit) {
  const Program prg("t", {IBar{}, INop{}, IExit{}});
  Grid g;
  g.blocks.push_back(block_of({Warp(0, 2, 0), Warp(2, 2, 1)}));
  const auto choices = eligible_choices(prg, g);
  ASSERT_EQ(choices.size(), 1u);
  EXPECT_EQ(choices[0].kind, Choice::Kind::ExecWarp);
  EXPECT_EQ(choices[0].warp, 1u);
}

TEST(BlockRules, LiftBarWhenAllWarpsAtBar) {
  const Program prg("t", {IBar{}, IExit{}});
  Machine m;
  m.grid.blocks.push_back(block_of({Warp(0, 2, 0), Warp(2, 2, 0)}));
  mem::MemSizes s;
  s.shared = 16;
  m.memory = mem::Memory(s);
  m.memory.store(Space::Shared, 0, 4, 5, false);

  const auto choices = eligible_choices(prg, m.grid);
  ASSERT_EQ(choices.size(), 1u);
  EXPECT_EQ(choices[0].kind, Choice::Kind::LiftBar);

  ASSERT_TRUE(apply_choice(prg, kc4(), m, choices[0]).ok());
  EXPECT_EQ(m.grid.blocks[0].warps[0]->uni_pc(), 1u);
  EXPECT_EQ(m.grid.blocks[0].warps[1]->uni_pc(), 1u);
  EXPECT_TRUE(m.memory.all_valid(Space::Shared, 0, 4));  // commit(mu)
  EXPECT_TRUE(terminated(prg, m.grid));
}

TEST(BlockRules, DivergentWarpAtBarIsStuck) {
  const Program prg("t", {IBar{}, IBar{}, IExit{}});
  Grid g;
  g.blocks.push_back(block_of({split_warp(2, 0, {0}, 1, {1})}));
  EXPECT_TRUE(is_stuck(prg, g));
  EXPECT_NE(stuck_reason(prg, g).find("barrier-divergence"),
            std::string::npos);
}

TEST(BlockRules, DivergentWarpAtExitIsStuck) {
  const Program prg("t", {IExit{}, IExit{}});
  Grid g;
  g.blocks.push_back(block_of({split_warp(2, 0, {0}, 1, {1})}));
  EXPECT_TRUE(is_stuck(prg, g));
  EXPECT_NE(stuck_reason(prg, g).find("reconvergence"), std::string::npos);
}

TEST(BlockRules, MixedBarExitIsStuck) {
  const Program prg("t", {IBar{}, IExit{}});
  Grid g;
  g.blocks.push_back(block_of({Warp(0, 2, 0), Warp(2, 2, 1)}));
  EXPECT_TRUE(is_stuck(prg, g));
  EXPECT_NE(stuck_reason(prg, g).find("never lift"), std::string::npos);
}

TEST(BlockRules, GridInterleavesBlocks) {
  const Program prg("t", {INop{}, IExit{}});
  Grid g;
  g.blocks.push_back(block_of({make_warp(0, 2)}));
  g.blocks.push_back(block_of({make_warp(2, 2)}));
  const auto choices = eligible_choices(prg, g);
  ASSERT_EQ(choices.size(), 2u);
  EXPECT_EQ(choices[0].block, 0u);
  EXPECT_EQ(choices[1].block, 1u);
}

TEST(BlockRules, ApplyChoiceInvalidatesMemoizedHash) {
  // The explorers memoize Machine::hash(); the semantics kernel is the
  // one mutator and must invalidate the cache on every transition.
  const Program prg("t", {INop{}, IExit{}});
  Machine m{generate_grid(kc4()), mem64()};
  const std::uint64_t before = m.hash();  // warm the cache
  const auto choices = eligible_choices(prg, m.grid);
  ASSERT_EQ(choices.size(), 1u);
  ASSERT_TRUE(apply_choice(prg, kc4(), m, choices[0]).ok());
  EXPECT_NE(m.hash(), before);
  Machine fresh = m;
  fresh.invalidate_hash();
  EXPECT_EQ(m.hash(), fresh.hash());
}

}  // namespace
}  // namespace cac::sem
