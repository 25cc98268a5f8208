// The static analyzer as an explorer accelerator.
//
// Plain POR branches the schedule at every memory instruction; the
// affine analysis (analysis/disjoint.h) proves the per-thread-slot
// Ld/St sites of data-parallel kernels independent under the concrete
// launch, so the explorer commits them without branching
// (ExploreOptions::por_independent_pcs).  This bench measures the
// explored-state and wall-clock reduction of POR+oracle over plain POR
// on two corpus kernels — verdicts are re-asserted every run, and
// tests/analysis/oracle_test.cc pins that the oracle leaves verdicts
// unchanged.
// Results land in BENCH_explore.json's `analysis` section
// (tools/bench_to_json.py).
#include <benchmark/benchmark.h>

#include <cstring>
#include <vector>

#include "analysis/disjoint.h"
#include "programs/corpus.h"
#include "ptx/lower.h"
#include "sched/explore.h"
#include "sem/launch.h"

namespace {

using namespace cac;
using programs::VecAddLayout;

struct Scenario {
  ptx::Program prg;
  sem::KernelConfig kc;
  sem::Machine init;
  analysis::LaunchEnv env;
};

analysis::LaunchEnv known_env(const ptx::Program& prg,
                              const sem::KernelConfig& kc,
                              const sem::LaunchSpec& spec) {
  analysis::LaunchEnv env;
  env.known = true;
  env.ntid[0] = kc.block.x;
  env.ntid[1] = kc.block.y;
  env.ntid[2] = kc.block.z;
  env.nctaid[0] = kc.grid.x;
  env.nctaid[1] = kc.grid.y;
  env.nctaid[2] = kc.grid.z;
  for (const auto& [name, value] : spec.params) {
    for (const ptx::ParamSlot& slot : prg.params()) {
      if (slot.name != name) continue;
      const std::uint64_t mask =
          slot.type.width >= 64 ? ~0ull : (1ull << slot.type.width) - 1;
      env.params[slot.offset] = value & mask;
    }
  }
  return env;
}

Scenario vecadd_scenario(std::uint32_t warps) {
  const VecAddLayout L;
  ptx::Program prg = programs::vector_add_listing2();
  const sem::KernelConfig kc{{1, 1, 1}, {4 * warps, 1, 1}, 4};
  sem::Launch launch(prg, kc, mem::MemSizes{L.global_bytes, 0, 0, 0, 1});
  launch.param("arr_A", L.a).param("arr_B", L.b).param("arr_C", L.c)
      .param("size", 4 * warps);
  for (std::uint32_t i = 0; i < 4 * warps; ++i) {
    launch.global_u32(L.a + 4 * i, i);
    launch.global_u32(L.b + 4 * i, 2 * i);
  }
  sem::LaunchSpec spec;
  spec.params = {{"arr_A", L.a}, {"arr_B", L.b}, {"arr_C", L.c},
                 {"size", 4 * warps}};
  analysis::LaunchEnv env = known_env(prg, kc, spec);
  return {std::move(prg), kc, launch.machine(), std::move(env)};
}

Scenario saxpy_scenario(std::uint32_t warps) {
  ptx::Program prg = ptx::load_ptx(programs::saxpy_ptx()).kernel("saxpy");
  const sem::KernelConfig kc{{1, 1, 1}, {4 * warps, 1, 1}, 4};
  sem::Launch launch(prg, kc, mem::MemSizes{0x400, 0, 0, 0, 1});
  launch.param("arr_X", 0x100).param("arr_Y", 0x200).param("a", 3)
      .param("size", 4 * warps);
  for (std::uint32_t i = 0; i < 4 * warps; ++i) {
    launch.global_u32(0x100 + 4 * i, i);
    launch.global_u32(0x200 + 4 * i, i);
  }
  sem::LaunchSpec spec;
  spec.params = {{"arr_X", 0x100}, {"arr_Y", 0x200}, {"a", 3},
                 {"size", 4 * warps}};
  analysis::LaunchEnv env = known_env(prg, kc, spec);
  return {std::move(prg), kc, launch.machine(), std::move(env)};
}

void run_oracle_bench(benchmark::State& state, const Scenario& s,
                      bool oracle) {
  sched::ExploreOptions opts;
  opts.partial_order_reduction = true;
  std::vector<std::uint32_t> pcs;
  if (oracle) {
    pcs = analysis::independent_access_pcs(s.prg, s.env);
    opts.por_independent_pcs = pcs;
  }
  std::uint64_t states = 0;
  for (auto _ : state) {
    const sched::ExploreResult r = sched::explore(s.prg, s.kc, s.init, opts);
    if (!r.schedule_independent()) {
      throw KernelError("exploration verdict changed");
    }
    states = r.states_visited;
  }
  state.counters["oracle"] = oracle ? 1 : 0;
  state.counters["independent_pcs"] = static_cast<double>(pcs.size());
  state.counters["states"] = static_cast<double>(states);
  state.counters["states_per_sec"] = benchmark::Counter(
      static_cast<double>(states), benchmark::Counter::kIsIterationInvariantRate);
}

void BM_AnalysisOracleVecAdd(benchmark::State& state) {
  const Scenario s = vecadd_scenario(2);
  run_oracle_bench(state, s, state.range(0) != 0);
}
BENCHMARK(BM_AnalysisOracleVecAdd)->Arg(0)->Arg(1);

void BM_AnalysisOracleSaxpy(benchmark::State& state) {
  const Scenario s = saxpy_scenario(2);
  run_oracle_bench(state, s, state.range(0) != 0);
}
BENCHMARK(BM_AnalysisOracleSaxpy)->Arg(0)->Arg(1);

}  // namespace

/// Custom main so CI can smoke the bench cheaply: `--quick` maps to a
/// tiny --benchmark_min_time.
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  static char quick_flag[] = "--benchmark_min_time=0.01";
  for (auto& a : args) {
    if (std::strcmp(a, "--quick") == 0) a = quick_flag;
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
