// Checkpoint/resume cost model: what a periodic checkpoint costs an
// exploration (overhead vs checkpoint-free), how fast a checkpoint
// file round-trips (save/load with full-payload checksumming), and
// what resuming from a half-way checkpoint saves over re-exploring
// from scratch.  The workload is the paper's vector sum, same as
// bench_parallel_explore, so the numbers compose.
//
// tools/bench_to_json.py runs this binary (alongside
// bench_parallel_explore) and snapshots the results into
// BENCH_explore.json.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "programs/corpus.h"
#include "ptx/lower.h"
#include "sched/checkpoint.h"
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

struct Workload {
  ptx::Program prg;
  sem::KernelConfig kc;
  sem::Machine init;
  explicit Workload(std::uint32_t warps)
      : prg(programs::vector_add_listing2()),
        kc{{1, 1, 1}, {4 * warps, 1, 1}, 4},
        init(vecadd_machine(prg, kc, 4 * warps)) {}
};

std::string bench_ckpt_path(const char* tag) {
  return std::string("/tmp/cac_bench_") + tag + ".ckpt";
}

/// Periodic checkpointing overhead: full serial exploration with a
/// checkpoint every N states (N = 0 disables).  The states_per_sec
/// counter across instances is the cost model an operator reads to
/// pick a checkpoint cadence.
void BM_CheckpointOverhead(benchmark::State& state) {
  const auto every = static_cast<std::uint64_t>(state.range(0));
  const Workload w(2);

  sched::ExploreOptions opts;
  opts.checkpoint_every_states = every;
  if (every != 0) opts.checkpoint_path = bench_ckpt_path("overhead");

  std::uint64_t states = 0, total = 0;
  for (auto _ : state) {
    const sched::ExploreResult r = sched::explore(w.prg, w.kc, w.init, opts);
    if (!r.exhaustive) throw KernelError("overhead run not exhaustive");
    states = r.states_visited;
    total += r.states_visited;
  }
  if (every != 0) std::remove(opts.checkpoint_path.c_str());
  state.counters["checkpoint_every"] = static_cast<double>(every);
  state.counters["states"] = static_cast<double>(states);
  state.counters["states_per_sec"] = benchmark::Counter(
      static_cast<double>(total), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CheckpointOverhead)
    ->ArgNames({"every"})
    ->Arg(0)
    ->Arg(64)
    ->Arg(256)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Checkpoint file round-trip: load (header validation + checksum +
/// payload decode into a fresh StateStore) and save (encode + checksum
/// + atomic write-then-rename), on a checkpoint taken half-way through
/// the exploration.
void BM_CheckpointSaveLoad(benchmark::State& state) {
  const Workload w(2);
  const std::string path = bench_ckpt_path("saveload");
  const std::string path2 = bench_ckpt_path("saveload2");

  sched::ExploreOptions full;
  const std::uint64_t total_states =
      sched::explore(w.prg, w.kc, w.init, full).states_visited;

  sched::ExploreOptions cut;
  cut.stop_after_states = total_states / 2;
  cut.checkpoint_path = path;
  const sched::ExploreResult r = sched::explore(w.prg, w.kc, w.init, cut);
  if (!r.checkpointed) throw KernelError("cut run did not checkpoint");

  std::uint64_t file_bytes = 0;
  {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f) {
      std::fseek(f, 0, SEEK_END);
      file_bytes = static_cast<std::uint64_t>(std::ftell(f));
      std::fclose(f);
    }
  }

  std::uint64_t round_trips = 0;
  for (auto _ : state) {
    const sched::Checkpoint ck = sched::Checkpoint::load(path);
    ck.save(path2);
    benchmark::DoNotOptimize(ck.verdict.states_visited);
    ++round_trips;
  }
  std::remove(path.c_str());
  std::remove(path2.c_str());
  state.counters["file_bytes"] = static_cast<double>(file_bytes);
  state.counters["checkpoint_states"] =
      static_cast<double>(cut.stop_after_states);
  state.counters["round_trips_per_sec"] = benchmark::Counter(
      static_cast<double>(round_trips), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_CheckpointSaveLoad)->Unit(benchmark::kMillisecond)->UseRealTime();

/// Resume economics: completing the exploration from a half-way
/// checkpoint vs re-exploring from scratch.  resume_fraction < 1 is
/// the crash-recovery win; the verdict is byte-identical either way.
void BM_ResumeFromCheckpoint(benchmark::State& state) {
  const Workload w(2);
  const std::string path = bench_ckpt_path("resume");

  sched::ExploreOptions full;
  const sched::ExploreResult whole = sched::explore(w.prg, w.kc, w.init, full);

  sched::ExploreOptions cut;
  cut.stop_after_states = whole.states_visited / 2;
  cut.checkpoint_path = path;
  const sched::ExploreResult half = sched::explore(w.prg, w.kc, w.init, cut);
  if (!half.checkpointed) throw KernelError("cut run did not checkpoint");

  std::uint64_t resumed = 0;
  for (auto _ : state) {
    // Load inside the loop: a resuming run adopts the checkpoint's
    // state store, so crash recovery is always load + resume.
    const sched::Checkpoint ck = sched::Checkpoint::load(path);
    const sched::ExploreResult r =
        sched::explore(w.prg, w.kc, w.init, full, &ck);
    if (r.states_visited != whole.states_visited) {
      throw KernelError("resumed verdict diverged");
    }
    ++resumed;
  }
  std::remove(path.c_str());
  state.counters["states"] = static_cast<double>(whole.states_visited);
  state.counters["resumed_runs_per_sec"] = benchmark::Counter(
      static_cast<double>(resumed), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ResumeFromCheckpoint)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

struct Banner {
  Banner() {
    std::printf(
        "Checkpoint/resume cost model — periodic checkpoint overhead,\n"
        "file round-trip (checksummed save/load), and resuming from a\n"
        "half-way checkpoint vs re-exploring.  Verdicts after resume\n"
        "are byte-identical to uninterrupted runs by construction.\n\n");
  }
} banner;

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
