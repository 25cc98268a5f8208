// Experiment T1 — paper Table I: the formal PTX model inventory.
//
// The paper reports its model as 350 SLOC of Coq for the PTX model,
// 300 SLOC of theorems and 140 SLOC of Ltac.  This binary prints the
// corresponding component inventory of the C++ reproduction (the
// definitions of Table I and where each lives), and benchmarks the
// constant-time model primitives (sreg_aux decoding, register file and
// predicate state access, memory cell access) to show the model layer
// adds no interpretive overhead.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "mem/memory.h"
#include "sem/launch.h"
#include "sem/state.h"

namespace {

using namespace cac;

void print_inventory() {
  std::printf(
      "Table I — formal PTX model definitions (paper -> this repo)\n"
      "  w    : N (data widths)            -> support/bits.h (8/16/32/64)\n"
      "  dty  : {UI,SI,BD} x N             -> ptx/dtype.h   DType\n"
      "  id   : {Id} x N                   -> ptx/operand.h Reg::index\n"
      "  ss   : {Global,Const,Shared}      -> ptx/dtype.h   Space (+Param)\n"
      "  addr : ss x N                     -> mem/memory.h  (space, addr)\n"
      "  mu   : (ss x addr)->(byte x B)    -> mem/memory.h  Memory/Cell\n"
      "  reg  : {UI,SI} x N x N            -> ptx/operand.h Reg\n"
      "  rho  : reg -> Z                   -> sem/warp.h    Warp register rows\n"
      "  phi  : N -> B                     -> sem/warp.h    Warp predicate rows\n"
      "  dim  : {Dx,Dy,Dz}                 -> ptx/operand.h Dim\n"
      "  sreg : {T,B,NT,NB} x dim          -> ptx/operand.h Sreg\n"
      "  sreg_aux : tid -> sreg -> N       -> sem/config.h  sreg_aux\n"
      "  op   : reg+sreg+Z+reg x Z         -> ptx/operand.h Operand\n"
      "  theta: N x rho x phi              -> sem/warp.h    Warp lane\n"
      "  omega: Uni | Div (tree)           -> sem/warp.h    Warp\n"
      "  beta : set of warps               -> sem/state.h   Block\n"
      "  gamma: set of blocks              -> sem/state.h   Grid\n"
      "Paper artifact sizes: 350 SLOC model + 300 theorems + 140 Ltac\n"
      "(Coq).  The executable C++ counterpart is necessarily larger;\n"
      "see EXPERIMENTS.md T1 for the per-module line counts.\n\n");
}

void BM_SregAuxDecode(benchmark::State& state) {
  const sem::KernelConfig kc{{4, 2, 2}, {8, 4, 2}, 32};
  std::uint32_t tid = 0;
  for (auto _ : state) {
    const std::uint32_t v = sem::sreg_aux(
        kc, tid, {ptx::SregKind::Tid, ptx::Dim::Y});
    benchmark::DoNotOptimize(v);
    tid = (tid + 1) % kc.total_threads();
  }
}
BENCHMARK(BM_SregAuxDecode);

void BM_RegFileAccess(benchmark::State& state) {
  sem::Warp w = sem::make_warp(0, 32);
  const ptx::Reg r{ptx::TypeClass::UI, 32, 5};
  std::uint64_t v = 0;
  for (auto _ : state) {
    w.write(7, r, v++);
    benchmark::DoNotOptimize(w.read(7, r));
  }
}
BENCHMARK(BM_RegFileAccess);

void BM_PredStateAccess(benchmark::State& state) {
  sem::Warp w = sem::make_warp(0, 32);
  bool b = false;
  for (auto _ : state) {
    w.write_pred(7, {1}, b = !b);
    benchmark::DoNotOptimize(w.pred(7, {1}));
  }
}
BENCHMARK(BM_PredStateAccess);

void BM_MemoryCellRoundTrip(benchmark::State& state) {
  mem::Memory mu(mem::MemSizes{4096, 0, 0, 0, 1});
  std::uint64_t addr = 0;
  for (auto _ : state) {
    mu.store(mem::Space::Global, addr, 4, addr, false);
    benchmark::DoNotOptimize(mu.load(mem::Space::Global, addr, 4));
    addr = (addr + 4) % 4092;
  }
}
BENCHMARK(BM_MemoryCellRoundTrip);

void BM_GenerateGrid(benchmark::State& state) {
  const sem::KernelConfig kc{
      {static_cast<std::uint32_t>(state.range(0)), 1, 1}, {64, 1, 1}, 32};
  for (auto _ : state) {
    benchmark::DoNotOptimize(sem::generate_grid(kc));
  }
  state.counters["threads"] =
      static_cast<double>(kc.total_threads());
}
BENCHMARK(BM_GenerateGrid)->Arg(1)->Arg(8)->Arg(64);

struct Printer {
  Printer() { print_inventory(); }
} printer;

}  // namespace
