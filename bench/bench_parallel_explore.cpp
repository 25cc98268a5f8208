// Schedule exploration on the paper's vector sum, with and without
// partial-order reduction.  Reports states/sec (the per-state work —
// Machine clone + semantics step + hash + intern — is what the DFS
// spends its time on), the state store's footprint, and the packed
// Memory representation's clone+hash fast path.
//
// tools/bench_to_json.py runs this binary and snapshots the results
// into BENCH_explore.json so successive PRs accumulate a perf
// trajectory.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "programs/corpus.h"
#include "ptx/lower.h"
#include "sched/explore.h"
#include "sem/launch.h"

namespace {

using namespace cac;
using programs::VecAddLayout;

sem::Machine vecadd_machine(const ptx::Program& prg,
                            const sem::KernelConfig& kc, std::uint32_t size) {
  const VecAddLayout L;
  sem::LaunchSpec spec;
  spec.grid = kc.grid;
  spec.block = kc.block;
  spec.warp_size = kc.warp_size;
  spec.global_bytes = L.global_bytes;
  spec.shared_bytes = 0;
  spec.params = {{"arr_A", L.a}, {"arr_B", L.b}, {"arr_C", L.c},
                 {"size", size}};
  for (std::uint32_t i = 0; i < size && 4 * i < 0x100; ++i) {
    spec.inits.emplace_back(L.a + 4 * i, i);
    spec.inits.emplace_back(L.b + 4 * i, i);
  }
  return spec.to_launch(prg).machine();
}

/// Args: (por, warps).  The warps=3 non-POR instance is the
/// acceptance workload: the schedule lattice of three 4-thread warps
/// through the 20-instruction vector sum.
void BM_ExploreVectorSum(benchmark::State& state) {
  const bool por = state.range(0) != 0;
  const auto warps = static_cast<std::uint32_t>(state.range(1));

  const ptx::Program prg = programs::vector_add_listing2();
  const sem::KernelConfig kc{{1, 1, 1}, {4 * warps, 1, 1}, 4};
  const sem::Machine init = vecadd_machine(prg, kc, 4 * warps);

  sched::ExploreOptions opts;
  opts.partial_order_reduction = por;

  std::uint64_t states = 0, total = 0;
  for (auto _ : state) {
    const sched::ExploreResult r = sched::explore(prg, kc, init, opts);
    if (!r.exhaustive || !r.schedule_independent()) {
      throw KernelError("vector-sum exploration verdict changed");
    }
    states = r.states_visited;
    total += r.states_visited;
  }
  state.counters["por"] = por ? 1 : 0;
  state.counters["warps"] = warps;
  state.counters["states"] = static_cast<double>(states);
  state.counters["states_per_sec"] = benchmark::Counter(
      static_cast<double>(total), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ExploreVectorSum)
    ->ArgNames({"por", "warps"})
    ->Args({0, 3})  // full exploration: the acceptance workload
    ->Args({1, 3})
    ->Args({0, 2})  // smaller instance for quick trend lines
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// The per-transition hot path in isolation: clone a launch-sized
/// Memory, dirty one word (invalidating the memoized hash) and rehash.
/// The packed byte-array + valid-bitmap layout halves the clone
/// bandwidth and hashes whole words instead of per-cell pairs.
void BM_MemoryCloneHash(benchmark::State& state) {
  const VecAddLayout L;
  mem::Memory proto(mem::MemSizes{L.global_bytes, 0, 0, 64, 1});
  for (std::uint32_t i = 0; i < 0x100; i += 4) {
    proto.init_u32(mem::Space::Global, L.a + i, i);
  }
  std::uint64_t addr = 0;
  for (auto _ : state) {
    mem::Memory c = proto;
    c.store(mem::Space::Global, addr, 4, addr, false);
    benchmark::DoNotOptimize(c.hash());
    addr = (addr + 4) % L.global_bytes;
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(L.global_bytes + 64));
}
BENCHMARK(BM_MemoryCloneHash);

/// Full machine clone + memoized hash — exactly what the explorer does
/// per transition (the semantics step is benched in bench_fig1).
void BM_MachineCloneHash(benchmark::State& state) {
  const ptx::Program prg = programs::vector_add_listing2();
  const sem::KernelConfig kc{{1, 1, 1}, {12, 1, 1}, 4};
  const sem::Machine proto = vecadd_machine(prg, kc, 12);
  for (auto _ : state) {
    sem::Machine m = proto;
    m.invalidate_hash();
    benchmark::DoNotOptimize(m.hash());
  }
}
BENCHMARK(BM_MachineCloneHash);

/// Revisit probe with a warm cache: the visited-set lookup pattern —
/// hash() on an unchanged machine must be O(1).
void BM_MachineHashMemoized(benchmark::State& state) {
  const ptx::Program prg = programs::vector_add_listing2();
  const sem::KernelConfig kc{{1, 1, 1}, {12, 1, 1}, 4};
  const sem::Machine proto = vecadd_machine(prg, kc, 12);
  benchmark::DoNotOptimize(proto.hash());
  for (auto _ : state) {
    benchmark::DoNotOptimize(proto.hash());
  }
}
BENCHMARK(BM_MachineHashMemoized);

/// State-store footprint: resident bytes per visited state with the
/// interning store vs full per-state machine copies (the pre-StateStore
/// representation), on the two acceptance workloads.  Arg: workload
/// (0 = vecadd 3 warps, 1 = reduce_shared).  The counters feed
/// BENCH_explore.json via tools/bench_to_json.py.
void BM_StateStoreFootprint(benchmark::State& state) {
  const bool reduce = state.range(0) != 0;

  ptx::Program prg = programs::vector_add_listing2();
  sem::KernelConfig kc{{1, 1, 1}, {12, 1, 1}, 4};
  sem::Machine init;
  if (reduce) {
    prg = ptx::load_ptx(programs::reduce_shared_ptx()).kernel("reduce");
    kc = sem::KernelConfig{{1, 1, 1}, {4, 1, 1}, 2};  // two 2-thread warps
    sem::LaunchSpec spec;
    spec.grid = kc.grid;
    spec.block = kc.block;
    spec.warp_size = kc.warp_size;
    spec.global_bytes = 256;
    spec.shared_bytes = 256;
    spec.params = {{"arr_A", 0}, {"out", 128}};
    for (std::uint32_t i = 0; i < 4; ++i) {
      spec.inits.emplace_back(4 * i, i * i + 1);
    }
    init = spec.to_launch(prg).machine();
  } else {
    init = vecadd_machine(prg, kc, 12);
  }

  sched::StateStore::Stats stats;
  for (auto _ : state) {
    const sched::ExploreResult r = sched::explore(prg, kc, init);
    if (!r.exhaustive || !r.store) {
      throw KernelError("footprint exploration verdict changed");
    }
    stats = r.store->stats();
  }
  const auto per_state = [&](std::uint64_t bytes) {
    return stats.states == 0
               ? 0.0
               : static_cast<double>(bytes) /
                     static_cast<double>(stats.states);
  };
  state.counters["states"] = static_cast<double>(stats.states);
  state.counters["warp_fragments"] =
      static_cast<double>(stats.warp_fragments);
  state.counters["bank_fragments"] =
      static_cast<double>(stats.bank_fragments);
  state.counters["resident_bytes_per_state"] =
      per_state(stats.resident_bytes);
  state.counters["machine_bytes_per_state"] =
      per_state(stats.materialized_bytes);
  state.counters["dedup_ratio"] = stats.dedup_ratio();
}
BENCHMARK(BM_StateStoreFootprint)
    ->ArgNames({"reduce"})
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

/// Custom main so CI can smoke the bench cheaply: `--quick` maps to a
/// minimal measuring time before the standard benchmark flags parse.
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
