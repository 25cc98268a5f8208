#include "ptx/lower.h"

#include <gtest/gtest.h>

#include "programs/corpus.h"
#include "sched/scheduler.h"
#include "sem/launch.h"

namespace cac::ptx {
namespace {

TEST(Lower, VectorAddShape) {
  const LoweredModule m = load_ptx(cac::programs::vector_add_ptx());
  ASSERT_EQ(m.kernels.size(), 1u);
  const Program& p = m.kernel("add_vector");
  // 22 instructions of Listing 1 plus one inserted Sync.
  EXPECT_EQ(p.size(), 23u);
  EXPECT_TRUE(validate(p).empty());
}

TEST(Lower, VectorAddParams) {
  const Program& p =
      load_ptx(cac::programs::vector_add_ptx()).kernel("add_vector");
  EXPECT_EQ(p.param("arr_A").offset, 0u);
  EXPECT_EQ(p.param("arr_B").offset, 8u);
  EXPECT_EQ(p.param("arr_C").offset, 16u);
  EXPECT_EQ(p.param("size").offset, 24u);
  EXPECT_EQ(p.param("size").type, UI(32));
  EXPECT_EQ(p.param_bytes(), 28u);
}

TEST(Lower, VectorAddSyncPlacement) {
  // The mechanical lowering must place Sync at the branch join, right
  // before the final Exit — where the paper put it by hand (index 18
  // of Listing 2; here shifted by the three retained cvta Movs).
  const Program& p =
      load_ptx(cac::programs::vector_add_ptx()).kernel("add_vector");
  ASSERT_GE(p.size(), 2u);
  EXPECT_TRUE(is_sync(p.fetch(static_cast<std::uint32_t>(p.size() - 2))));
  EXPECT_TRUE(is_exit(p.fetch(static_cast<std::uint32_t>(p.size() - 1))));
  // The guarded branch targets the Sync.
  const auto* pb = std::get_if<IPBra>(&p.fetch(9));
  ASSERT_NE(pb, nullptr);
  EXPECT_EQ(pb->target, p.size() - 2);
}

TEST(Lower, VectorAddInstructionKinds) {
  const Program& p =
      load_ptx(cac::programs::vector_add_ptx()).kernel("add_vector");
  // ld.param -> Param-space loads.
  const auto* ld0 = std::get_if<ILd>(&p.fetch(0));
  ASSERT_NE(ld0, nullptr);
  EXPECT_EQ(ld0->space, Space::Param);
  EXPECT_EQ(ld0->type, UI(64));
  // mov.u32 %r3, %ntid.x
  const auto* mv = std::get_if<IMov>(&p.fetch(4));
  ASSERT_NE(mv, nullptr);
  EXPECT_EQ(mv->src, op_sreg(SregKind::NTid, Dim::X));
  // mad.lo.s32
  const auto* mad = std::get_if<ITop>(&p.fetch(7));
  ASSERT_NE(mad, nullptr);
  EXPECT_EQ(mad->op, TerOp::MadLo);
  EXPECT_EQ(mad->type, SI(32));
  // setp.ge.s32
  const auto* sp = std::get_if<ISetp>(&p.fetch(8));
  ASSERT_NE(sp, nullptr);
  EXPECT_EQ(sp->cmp, CmpOp::Ge);
  // cvta.to.global becomes a Mov.
  EXPECT_TRUE(std::holds_alternative<IMov>(p.fetch(10)));
  // mul.wide.s32
  const auto* mw = std::get_if<IBop>(&p.fetch(11));
  ASSERT_NE(mw, nullptr);
  EXPECT_EQ(mw->op, BinOp::MulWide);
}

TEST(Lower, SharedSymbolsGetOffsets) {
  const LoweredModule m = load_ptx(cac::programs::reduce_shared_ptx());
  ASSERT_TRUE(m.shared_offsets.count("sh"));
  EXPECT_EQ(m.shared_offsets.at("sh"), 0u);
  EXPECT_EQ(m.shared_bytes, 256u);
}

TEST(Lower, UniformBranchGetsNoSync) {
  // scan_signature's loop branch is on a warp-uniform predicate; the
  // only Syncs come from the tid-dependent bounds guard.
  const Program& p =
      load_ptx(cac::programs::scan_signature_ptx()).kernel("scan_signature");
  std::size_t syncs = 0;
  for (const auto& i : p.code()) {
    if (is_sync(i)) ++syncs;
  }
  EXPECT_EQ(syncs, 1u);
}

TEST(Lower, ReduceHasSyncBeforeEachBarrier) {
  // The `tid < offset` guard must reconverge before the loop barrier.
  const Program& p =
      load_ptx(cac::programs::reduce_shared_ptx()).kernel("reduce");
  for (std::uint32_t pc = 0; pc < p.size(); ++pc) {
    if (!std::holds_alternative<IPBra>(p.fetch(pc))) continue;
    const auto& pb = std::get<IPBra>(p.fetch(pc));
    // Every divergent branch target that is a barrier-adjacent join
    // must land on a Sync or a plain instruction — never directly on a
    // Bar from a divergent state.
    EXPECT_FALSE(is_bar(p.fetch(pb.target)))
        << "pbra at " << pc << " targets a barrier directly";
  }
}

TEST(Lower, SyncInsertionCanBeDisabled) {
  LowerOptions opts;
  opts.insert_syncs = false;
  const Program& p = load_ptx(cac::programs::vector_add_ptx(), opts)
                         .kernel("add_vector");
  EXPECT_EQ(p.size(), 22u);
  for (const auto& i : p.code()) EXPECT_FALSE(is_sync(i));
}

TEST(Lower, NegatedGuardLowered) {
  const LoweredModule m = load_ptx(R"(
.visible .entry f() {
  .reg .pred %p<2>;
  .reg .u32 %r<3>;
  mov.u32 %r1, %tid.x;
  setp.eq.u32 %p1, %r1, 0;
  @!%p1 bra L;
  add.u32 %r2, %r1, 1;
L: ret;
})");
  const Program& p = m.kernel("f");
  bool found = false;
  for (const auto& i : p.code()) {
    if (const auto* pb = std::get_if<IPBra>(&i)) {
      EXPECT_TRUE(pb->negated);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Lower, GuardOnNonBranchRejected) {
  // The model predicates branches only (paper §III-3).
  EXPECT_THROW(load_ptx(R"(
.visible .entry f() {
  .reg .pred %p<2>;
  .reg .u32 %r<3>;
  @%p1 add.u32 %r1, %r2, 1;
  ret;
})"),
               cac::PtxError);
}

TEST(Lower, UndeclaredRegisterRejected) {
  EXPECT_THROW(load_ptx(R"(
.visible .entry f() {
  mov.u32 %r1, 0;
  ret;
})"),
               cac::PtxError);
}

// Register resolution: each declared name is its own model register.
// The first declaration of a (class, width) keeps nvcc's numbering
// (%r7 is index 7); a later one takes the next free indices.

const ILd& first_load(const Program& p) {
  for (const Instr& i : p.code()) {
    if (const auto* ld = std::get_if<ILd>(&i)) return *ld;
  }
  throw PtxError("no load");
}

TEST(Lower, TwoPrefixesOfOneTypeDoNotAlias) {
  const Program p = load_ptx(R"(
.visible .entry f() {
  .reg .u32 %r<4>;
  .reg .u32 %q<4>;
  add.u32 %r2, %r1, %q1;
  ret;
})").kernel("f");
  const auto* add = std::get_if<IBop>(&p.fetch(0));
  ASSERT_NE(add, nullptr);
  EXPECT_EQ(add->dst, (Reg{TypeClass::UI, 32, 2}));
  EXPECT_EQ(add->a, Operand{(Reg{TypeClass::UI, 32, 1})});
  EXPECT_EQ(add->b, Operand{(Reg{TypeClass::UI, 32, 5})});  // %q0 is 4
}

TEST(Lower, TwoPredicatePrefixesDoNotAlias) {
  const Program p = load_ptx(R"(
.visible .entry f() {
  .reg .pred %p<2>;
  .reg .pred %q<2>;
  .reg .u32 %r<2>;
  setp.eq.u32 %p1, %r1, 0;
  setp.ne.u32 %q1, %r1, 0;
  ret;
})").kernel("f");
  EXPECT_EQ(std::get<ISetp>(p.fetch(0)).dst, Pred{1});
  EXPECT_EQ(std::get<ISetp>(p.fetch(1)).dst, Pred{3});
}

TEST(Lower, SingleRegisterIsNotAPrefix) {
  // %a1 is its own u64 register, not the 32-bit %a with index 1.
  const Program p = load_ptx(R"(
.visible .entry f() {
  .reg .u32 %a;
  .reg .u64 %a1;
  mov.u32 %a, 1;
  mov.u64 %a1, 2;
  ret;
})").kernel("f");
  EXPECT_EQ(std::get<IMov>(p.fetch(0)).dst, (Reg{TypeClass::UI, 32, 0}));
  EXPECT_EQ(std::get<IMov>(p.fetch(1)).dst, (Reg{TypeClass::UI, 64, 0}));
}

TEST(Lower, LoneRegisterWithDigitsAccepted) {
  const Program p = load_ptx(R"(
.visible .entry f() {
  .reg .u64 %x1;
  ld.global.u64 %x1, [%x1];
  ret;
})").kernel("f");
  EXPECT_EQ(first_load(p).dst, (Reg{TypeClass::UI, 64, 0}));
}

TEST(Lower, IndexOutsideDeclaredRangeRejected) {
  try {
    (void)load_ptx(R"(
.visible .entry f() {
  .reg .u32 %r<2>;
  mov.u32 %r7, 0;
  ret;
})");
    FAIL() << "%r7 under %r<2> lowered";
  } catch (const PtxError& e) {
    EXPECT_STREQ(e.what(),
                 "4:11: '%r7' is out of the declared range %r<2>");
  }
}

TEST(Lower, BarePrefixOfARangeRejected) {
  // %r<4> declares %r0..%r3, not %r (nor %r00 or %r01).
  for (const char* name : {"%r", "%r00", "%r01"}) {
    EXPECT_THROW(load_ptx(std::string(R"(
.visible .entry f() {
  .reg .u32 %r<4>;
  mov.u32 )") + name + R"(, 0;
  ret;
})"),
                 cac::PtxError)
        << name;
  }
}

TEST(Lower, RedeclaredNameRejectedWhereUsed) {
  EXPECT_THROW(load_ptx(R"(
.visible .entry f() {
  .reg .u32 %r<4>;
  .reg .u32 %r<4>;
  mov.u32 %r1, 0;
  ret;
})"),
               cac::PtxError);
}

TEST(Lower, DistinctPrefixesHoldDistinctValues) {
  // %r1 = 1 and %q1 = 2 in one u32 space: the sum is 3.  Aliased,
  // the write to %q1 overwrote %r1 and the sum was 4.
  const Program p = load_ptx(R"(
.visible .entry f(
  .param .u64 out
)
{
  .reg .u32 %r<4>;
  .reg .u32 %q<4>;
  .reg .u64 %rd<2>;
  ld.param.u64 %rd1, [out];
  mov.u32 %r1, 1;
  mov.u32 %q1, 2;
  add.u32 %r2, %r1, %q1;
  st.global.u32 [%rd1], %r2;
  ret;
})").kernel("f");
  const sem::KernelConfig kc{{1, 1, 1}, {1, 1, 1}, 1};
  sem::Launch launch(p, kc, mem::MemSizes{64, 0, 0, 0, 1});
  launch.param("out", 16);
  sem::Machine m = launch.machine();
  sched::RoundRobinScheduler s;
  ASSERT_TRUE(sched::run(p, kc, m, s).terminated());
  EXPECT_EQ(m.memory.load(mem::Space::Global, 16, 4), 3u);
}

TEST(Lower, UndefinedLabelRejected) {
  EXPECT_THROW(load_ptx(R"(
.visible .entry f() {
  bra NOWHERE;
  ret;
})"),
               cac::PtxError);
}

TEST(Lower, UnsupportedOpcodeRejected) {
  EXPECT_THROW(load_ptx(R"(
.visible .entry f() {
  .reg .u32 %r<3>;
  bfind.u32 %r1, %r2;
  ret;
})"),
               cac::PtxError);
}

TEST(Lower, CvtRecordsSourceType) {
  const Program& p = load_ptx(R"(
.visible .entry f() {
  .reg .u32 %r<2>;
  .reg .u64 %rd<2>;
  cvt.u64.u32 %rd1, %r1;
  ret;
})").kernel("f");
  const auto* cv = std::get_if<IUop>(&p.fetch(0));
  ASSERT_NE(cv, nullptr);
  EXPECT_EQ(cv->op, UnOp::Cvt);
  EXPECT_EQ(cv->type, UI(32));   // source interpretation
  EXPECT_EQ(cv->dst.width, 64);  // destination width from the register
}

TEST(Lower, AtomicLowered) {
  const Program& p = load_ptx(cac::programs::atomic_sum_ptx())
                         .kernel("atomic_sum");
  bool found = false;
  for (const auto& i : p.code()) {
    if (const auto* a = std::get_if<IAtom>(&i)) {
      EXPECT_EQ(a->op, AtomOp::Add);
      EXPECT_EQ(a->space, Space::Global);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Lower, AllCorpusKernelsAreWellFormed) {
  for (auto src :
       {&cac::programs::vector_add_ptx, &cac::programs::xor_cipher_ptx,
        &cac::programs::scan_signature_ptx, &cac::programs::reduce_shared_ptx,
        &cac::programs::atomic_sum_ptx,
        &cac::programs::reduce_shared_nobar_ptx,
        &cac::programs::barrier_divergence_ptx,
        &cac::programs::race_store_ptx}) {
    const LoweredModule m = load_ptx((*src)());
    for (const Program& k : m.kernels) {
      EXPECT_TRUE(validate(k).empty()) << k.name();
    }
  }
}

}  // namespace
}  // namespace cac::ptx
