// Tiered-store scaling: what the external-memory StateStore buys at
// state counts where the all-hot representation stops fitting.
//
//  * BM_BigStoreIntern — synthetic direct-intern throughput at large N
//    under a resident budget with a spill segment; the acceptance run
//    (--big) pushes 10^7 states through a 512 MiB budget and reports
//    the resident and spilled split.  Without --big a 10^5-state
//    version runs so CI can smoke the binary cheaply.
//  * BM_BigExploreLattice — a real exploration past 10^6 states
//    (straightline lattice, 4 warps) under a budget, throwing if the
//    run is anything but exhaustive: budget pressure must never turn
//    into a truncated verdict.
//  * BM_StoreBudgetSweep — vecadd / saxpy / reduce_shared explored at
//    100% / 50% / 10% of their unbounded resident footprint, pinning
//    verdict identity against the unbounded run and reporting resident
//    bytes per state.  The reduce_shared row is the headline: PR2
//    measured 355.5 resident B/state for this workload with the flat
//    store (BENCH_explore.json "state_store"); the tiered store with
//    delta encoding has to beat it by >= 3x at the 10% budget point.
//
// tools/bench_to_json.py snapshots these counters into
// BENCH_explore.json under "store_tiers".
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "programs/corpus.h"
#include "ptx/lower.h"
#include "sched/checkpoint.h"
#include "sched/explore.h"
#include "sched/state_store.h"
#include "sem/launch.h"

namespace {

using namespace cac;
using programs::VecAddLayout;

bool g_big = false;  // --big: run the 10^7-state acceptance configs

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

void report_store(benchmark::State& state,
                  const sched::StateStore::Stats& st) {
  const auto per_state = [&](std::uint64_t bytes) {
    return st.states == 0 ? 0.0
                          : static_cast<double>(bytes) /
                                static_cast<double>(st.states);
  };
  state.counters["states"] = static_cast<double>(st.states);
  state.counters["resident_bytes"] = static_cast<double>(st.resident_bytes);
  state.counters["spilled_bytes"] = static_cast<double>(st.spilled_bytes);
  state.counters["resident_bytes_per_state"] = per_state(st.resident_bytes);
  state.counters["hot_evictions"] = static_cast<double>(st.hot_evictions);
  state.counters["spills"] = static_cast<double>(st.spills);
  state.counters["rematerializations"] =
      static_cast<double>(st.rematerializations);
  state.counters["delta_fragments"] = static_cast<double>(st.delta_fragments);
  state.counters["dedup_ratio"] = st.dedup_ratio();
}

/// Direct-intern scaling: N distinct states (a counter poked into the
/// global bank, the step-shaped edit the delta tier is built for)
/// pushed through a budgeted store with a spill segment.  The
/// acceptance criterion is that resident_bytes stays near the budget
/// while the full set remains dedupable: a re-intern probe of a
/// sample must find every state already present.
void BM_BigStoreIntern(benchmark::State& state) {
  const std::uint64_t n = g_big ? 10'000'000 : 100'000;
  const std::uint64_t budget =
      g_big ? (512ull << 20)
            : (8ull << 20);  // scaled down with the state count

  const ptx::Program prg = programs::vector_add_listing2();
  const sem::KernelConfig kc{{1, 1, 1}, {8, 1, 1}, 4};
  sem::Machine m = vecadd_machine(prg, kc, 8);

  for (auto _ : state) {
    sched::StoreOptions so;
    so.spill_dir = "/tmp";
    so.resident_budget_bytes = budget;
    sched::StateStore store(so);

    sched::StateId parent{};
    for (std::uint64_t i = 0; i < n; ++i) {
      m.memory.store(mem::Space::Global, 0, 4,
                     static_cast<std::uint32_t>(i), true);
      m.invalidate_hash();
      const auto r = store.intern(m, ~0ull, parent);
      if (!r.id.valid() || !r.inserted) {
        throw KernelError("synthetic intern produced a duplicate");
      }
      parent = r.id;
    }

    // Spot-check dedup through the tiers: every sampled state must
    // still be found (not re-inserted) after all that eviction.
    for (std::uint64_t i = 0; i < n; i += n / 100) {
      m.memory.store(mem::Space::Global, 0, 4,
                     static_cast<std::uint32_t>(i), true);
      m.invalidate_hash();
      if (store.intern(m).inserted) {
        throw KernelError("tiered store lost a state");
      }
    }

    const auto st = store.stats();
    if (st.states != n) throw KernelError("state count drifted");
    // "Near the budget": the un-evictable floor (tuple table, hash
    // index) plus one sweep's slack; 2x is the alarm threshold.
    if (st.resident_bytes > 2 * budget) {
      throw KernelError("resident bytes escaped the budget");
    }
    report_store(state, st);
    state.counters["budget_bytes"] = static_cast<double>(budget);
    state.counters["rss_bytes"] =
        static_cast<double>(sched::current_rss_bytes());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(
      n * static_cast<std::uint64_t>(state.iterations())));
}
BENCHMARK(BM_BigStoreIntern)->Unit(benchmark::kMillisecond)->UseRealTime();

/// A real exploration past 10^6 states under a budget.  The 4-warp
/// straightline lattice has C(4k, k,k,k,k)-style interleaving growth:
/// 4 warps x 31 instructions reaches ~1.05M distinct states.  The run
/// must stay exhaustive — a budget can slow the run, never truncate
/// it.
void BM_BigExploreLattice(benchmark::State& state) {
  const ptx::Program prg = programs::straightline_program(31);
  const sem::KernelConfig kc{{1, 1, 1}, {8, 1, 1}, 2};  // 4 warps
  const sem::Machine init =
      sem::Launch(prg, kc, mem::MemSizes{}).machine();

  sched::ExploreOptions opts;
  opts.stop_at_first_violation = false;
  opts.max_states = 4u << 20;  // the default 2^20 sits below the lattice
  opts.store_spill_dir = "/tmp";
  opts.store_resident_budget_bytes = 256ull << 20;

  sched::StateStore::Stats st;
  std::uint64_t states = 0;
  for (auto _ : state) {
    const sched::ExploreResult r = sched::explore(prg, kc, init, opts);
    if (!r.exhaustive || r.limit_hit != sched::ExploreResult::Limit::None) {
      throw KernelError("big exploration hit a limit under budget");
    }
    states = r.states_visited;
    st = r.store_stats;
  }
  if (states < 1'000'000) throw KernelError("lattice smaller than 10^6");
  report_store(state, st);
  state.counters["rss_bytes"] =
      static_cast<double>(sched::current_rss_bytes());
  state.SetItemsProcessed(static_cast<std::int64_t>(
      states * static_cast<std::uint64_t>(state.iterations())));
}
BENCHMARK(BM_BigExploreLattice)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime()
    ->Iterations(1);

/// Budget sweep on the acceptance kernels.  Arg 0 selects the
/// workload (0 = vecadd, 1 = saxpy, 2 = reduce_shared), arg 1 the
/// budget as a percentage of the unbounded resident footprint (100 =
/// effectively unbounded, 50, 10).  Every budgeted run must reproduce
/// the unbounded verdict exactly.
void BM_StoreBudgetSweep(benchmark::State& state) {
  const auto workload = static_cast<int>(state.range(0));
  const auto pct = static_cast<std::uint64_t>(state.range(1));

  ptx::Program prg = programs::vector_add_listing2();
  sem::KernelConfig kc{{1, 1, 1}, {12, 1, 1}, 4};
  sem::Machine init;
  const char* name = "vecadd";
  if (workload == 0) {
    init = vecadd_machine(prg, kc, 12);
  } else if (workload == 1) {
    name = "saxpy";
    prg = ptx::load_ptx(programs::saxpy_ptx()).kernel("saxpy");
    kc = sem::KernelConfig{{1, 1, 1}, {8, 1, 1}, 4};
    sem::Launch launch(prg, kc, mem::MemSizes{256, 0, 0, 0, 1});
    launch.param("arr_X", 0).param("arr_Y", 64).param("a", 7).param("size",
                                                                    8);
    for (std::uint32_t i = 0; i < 8; ++i) {
      launch.global_u32(4 * i, i + 1);
      launch.global_u32(64 + 4 * i, 100 * i);
    }
    init = launch.machine();
  } else {
    name = "reduce_shared";
    prg = ptx::load_ptx(programs::reduce_shared_ptx()).kernel("reduce");
    kc = sem::KernelConfig{{1, 1, 1}, {4, 1, 1}, 2};
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
  }

  sched::ExploreOptions unbounded;
  unbounded.stop_at_first_violation = false;
  const sched::ExploreResult full = sched::explore(prg, kc, init, unbounded);
  if (!full.exhaustive) throw KernelError("unbounded run not exhaustive");

  sched::ExploreOptions opts = unbounded;
  opts.store_spill_dir = "/tmp";
  opts.store_resident_budget_bytes =
      pct >= 100 ? 0 : full.store_stats.resident_bytes * pct / 100;

  sched::StateStore::Stats st;
  for (auto _ : state) {
    const sched::ExploreResult r = sched::explore(prg, kc, init, opts);
    if (r.states_visited != full.states_visited ||
        r.transitions != full.transitions ||
        r.final_ids.size() != full.final_ids.size() ||
        r.violations.size() != full.violations.size()) {
      throw KernelError("budgeted verdict diverged from unbounded");
    }
    st = r.store_stats;
  }
  report_store(state, st);
  state.counters["budget_pct"] = static_cast<double>(pct);
  state.counters["workload"] = workload;
  state.SetLabel(name);
}
BENCHMARK(BM_StoreBudgetSweep)
    ->ArgNames({"workload", "budget_pct"})
    ->ArgsProduct({{0, 1, 2}, {100, 50, 10}})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

}  // namespace

/// Custom main: `--quick` maps to a short min_time for the CI smoke
/// step; `--big` switches BM_BigStoreIntern to the 10^7-state
/// acceptance configuration (tens of seconds, never run by default).
int main(int argc, char** argv) {
  std::vector<char*> args;
  static char quick_flag[] = "--benchmark_min_time=0.01";
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      args.push_back(quick_flag);
    } else if (std::strcmp(argv[i], "--big") == 0) {
      g_big = true;
    } else {
      args.push_back(argv[i]);
    }
  }
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
