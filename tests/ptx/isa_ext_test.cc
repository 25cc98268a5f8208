// Extended ISA coverage: abs/popc/clz/brev and vectorized ld/st.
#include <gtest/gtest.h>

#include "ptx/lower.h"
#include "sched/scheduler.h"
#include "sem/launch.h"
#include "sem/step.h"

namespace cac::ptx {
namespace {

const Reg r1{TypeClass::UI, 32, 1}, r2{TypeClass::UI, 32, 2};

sem::KernelConfig kc1() { return {{1, 1, 1}, {1, 1, 1}, 1}; }

std::uint64_t run_unop(UnOp op, const DType& t, std::int64_t input) {
  const Program prg("u", {IMov{r1, op_imm(input)},
                          IUop{op, t, r2, op_reg(r1)}, IExit{}});
  sem::Warp w = sem::make_warp(0, 1);
  mem::Memory mu;
  sem::step_warp(prg, kc1(), 0, w, mu);
  sem::step_warp(prg, kc1(), 0, w, mu);
  return w.read(0, r2);
}

TEST(IsaExt, Abs) {
  EXPECT_EQ(run_unop(UnOp::Abs, SI(32), -5), 5u);
  EXPECT_EQ(run_unop(UnOp::Abs, SI(32), 5), 5u);
  EXPECT_EQ(run_unop(UnOp::Abs, SI(32), 0), 0u);
  // abs(INT_MIN) wraps to INT_MIN, as on hardware.
  EXPECT_EQ(run_unop(UnOp::Abs, SI(32), INT32_MIN), 0x80000000u);
}

TEST(IsaExt, Popc) {
  EXPECT_EQ(run_unop(UnOp::Popc, BD(32), 0), 0u);
  EXPECT_EQ(run_unop(UnOp::Popc, BD(32), 0xff), 8u);
  EXPECT_EQ(run_unop(UnOp::Popc, BD(32), -1), 32u);
}

TEST(IsaExt, Clz) {
  EXPECT_EQ(run_unop(UnOp::Clz, BD(32), 0), 32u);
  EXPECT_EQ(run_unop(UnOp::Clz, BD(32), 1), 31u);
  EXPECT_EQ(run_unop(UnOp::Clz, BD(32), -1), 0u);
  EXPECT_EQ(run_unop(UnOp::Clz, BD(32), 0x00010000), 15u);
}

TEST(IsaExt, Brev) {
  EXPECT_EQ(run_unop(UnOp::Brev, BD(32), 1), 0x80000000u);
  EXPECT_EQ(run_unop(UnOp::Brev, BD(32), 0x80000000), 1u);
  EXPECT_EQ(run_unop(UnOp::Brev, BD(32), 0xf0f0f0f0), 0x0f0f0f0fu);
}

TEST(IsaExt, UnopsParseFromPtx) {
  const Program prg = load_ptx(R"(
.visible .entry f() {
  .reg .u32 %r<5>;
  mov.u32 %r1, 12;
  abs.s32 %r2, %r1;
  popc.b32 %r3, %r1;
  clz.b32 %r4, %r1;
  brev.b32 %r1, %r1;
  ret;
})").kernel("f");
  EXPECT_EQ(prg.size(), 6u);
  EXPECT_TRUE(std::holds_alternative<IUop>(prg.fetch(1)));
  EXPECT_EQ(std::get<IUop>(prg.fetch(2)).op, UnOp::Popc);
  EXPECT_EQ(std::get<IUop>(prg.fetch(3)).op, UnOp::Clz);
  EXPECT_EQ(std::get<IUop>(prg.fetch(4)).op, UnOp::Brev);
}

TEST(IsaExt, VectorLoadLowersToScalarLoads) {
  const Program prg = load_ptx(R"(
.visible .entry f(.param .u64 p) {
  .reg .u32 %r<5>;
  .reg .u64 %rd<2>;
  ld.param.u64 %rd1, [p];
  ld.global.v2.u32 {%r1, %r2}, [%rd1];
  ld.global.v4.u32 {%r1, %r2, %r3, %r4}, [%rd1+16];
  ret;
})").kernel("f");
  // 1 param load + 2 + 4 scalar loads + ret.
  ASSERT_EQ(prg.size(), 8u);
  const auto& l0 = std::get<ILd>(prg.fetch(1));
  const auto& l1 = std::get<ILd>(prg.fetch(2));
  EXPECT_TRUE(std::holds_alternative<Reg>(l0.addr));
  const auto& ri = std::get<RegImm>(l1.addr);
  EXPECT_EQ(ri.offset, 4);
  const auto& v4_last = std::get<ILd>(prg.fetch(6));
  EXPECT_EQ(std::get<RegImm>(v4_last.addr).offset, 16 + 12);
}

TEST(IsaExt, VectorStoreRoundTripsThroughMemory) {
  const Program prg = load_ptx(R"(
.visible .entry f() {
  .reg .u32 %r<5>;
  mov.u32 %r1, 11;
  mov.u32 %r2, 22;
  st.global.v2.u32 [8], {%r1, %r2};
  ld.global.v2.u32 {%r3, %r4}, [8];
  ret;
})").kernel("f");
  const sem::KernelConfig kc{{1, 1, 1}, {1, 1, 1}, 1};
  sem::Launch launch(prg, kc, mem::MemSizes{32, 0, 0, 0, 1});
  sem::Machine m = launch.machine();
  sched::FirstChoiceScheduler s;
  ASSERT_TRUE(sched::run(prg, kc, m, s).terminated());
  EXPECT_EQ(m.memory.load(mem::Space::Global, 8, 4), 11u);
  EXPECT_EQ(m.memory.load(mem::Space::Global, 12, 4), 22u);
  const sem::Warp& w = *m.grid.blocks[0].warps[0];
  EXPECT_EQ(w.read(0, {TypeClass::UI, 32, 3}), 11u);
  EXPECT_EQ(w.read(0, {TypeClass::UI, 32, 4}), 22u);
}

TEST(IsaExt, VectorArityMismatchRejected) {
  EXPECT_THROW(load_ptx(R"(
.visible .entry f() {
  .reg .u32 %r<5>;
  .reg .u64 %rd<2>;
  ld.global.v2.u32 {%r1, %r2, %r3}, [%rd1];
  ret;
})"),
               cac::PtxError);
  EXPECT_THROW(load_ptx(R"(
.visible .entry f() {
  .reg .u32 %r<5>;
  .reg .u64 %rd<2>;
  ld.global.u32 {%r1, %r2}, [%rd1];
  ret;
})"),
               cac::PtxError);
}

}  // namespace
}  // namespace cac::ptx
