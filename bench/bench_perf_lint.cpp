// Throughput of the static performance passes (analysis/perf.h).
//
// The perf lint runs the affine interpreter once per kernel and prices
// every Global/Shared access site plus every divergent branch against
// the cost model — all static, no exploration.  This bench tracks that
// cost on the embedded corpus (clean kernels: the common case in a
// lint sweep) and on an offender kernel that produces findings of all
// three kinds, so a pricing regression and an interpreter regression
// are distinguishable.  BM_PerfLintStraightLine runs the whole
// `cacval lint --perf` analysis (races included) over unrolled kernels
// of growing length, so a pass that turns quadratic in the number of
// access sites shows as a curve.  Results land in BENCH_explore.json's
// `perf_lint` section (tools/bench_to_json.py).
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "analysis/lint.h"
#include "analysis/perf.h"
#include "programs/corpus.h"
#include "ptx/lower.h"

namespace {

using namespace cac;

// One kernel with all three anti-patterns: a stride-16 global load,
// a column-major shared store (32-way conflict), and a `tid % 2`
// divergent region containing a global load.
const char* offender_ptx() {
  return R"(
.version 6.0
.target sm_30
.address_size 64

.shared .align 4 .b8 tile[4096];

.visible .entry offender(
  .param .u64 arr_A,
  .param .u64 arr_C
)
{
  .reg .pred %p<2>;
  .reg .u32 %r<10>;
  .reg .u64 %rd<8>;

  ld.param.u64 %rd1, [arr_A];
  ld.param.u64 %rd2, [arr_C];
  mov.u32 %r1, %tid.x;

  // Strided global load: 16 bytes per lane.
  mul.wide.u32 %rd3, %r1, 16;
  add.u64 %rd4, %rd1, %rd3;
  ld.global.u32 %r2, [%rd4];

  // Column-major shared store: lane stride of 128 bytes.
  mul.lo.u32 %r3, %r1, 128;
  mov.u32 %r4, tile;
  add.u32 %r5, %r4, %r3;
  st.shared.u32 [%r5], %r2;

  // Oscillating guard: odd lanes take the branch.
  rem.u32 %r6, %r1, 2;
  setp.ne.u32 %p1, %r6, 0;
  @%p1 bra DONE;

  mul.wide.u32 %rd5, %r1, 4;
  add.u64 %rd6, %rd2, %rd5;
  ld.global.u32 %r7, [%rd6];
  add.s32 %r8, %r7, %r2;
  st.global.u32 [%rd6], %r8;

DONE:
  ret;
}
)";
}

struct Kernel {
  ptx::Program prg;
  std::vector<SourceLoc> locs;
};

Kernel load(const std::string& text, const std::string& name) {
  ptx::LoweredModule mod = ptx::load_ptx(text);
  ptx::Program prg = mod.kernel(name);
  std::vector<SourceLoc> locs = mod.locs_for(prg);
  return {std::move(prg), std::move(locs)};
}

void run_perf_bench(benchmark::State& state, const std::vector<Kernel>& ks,
                    std::size_t expected_findings) {
  std::uint64_t findings = 0;
  for (auto _ : state) {
    findings = 0;
    for (const Kernel& k : ks) {
      const analysis::PerfReport r = analysis::analyze_perf(k.prg, k.locs);
      findings += r.findings.size();
      benchmark::DoNotOptimize(r.findings.data());
    }
    if (findings != expected_findings) {
      throw KernelError("perf finding count changed");
    }
  }
  state.counters["kernels"] = static_cast<double>(ks.size());
  state.counters["findings"] = static_cast<double>(findings);
  state.counters["kernels_per_sec"] = benchmark::Counter(
      static_cast<double>(ks.size()),
      benchmark::Counter::kIsIterationInvariantRate);
}

/// The lint-sweep common case: well-formed kernels, zero findings.
void BM_PerfLintCleanCorpus(benchmark::State& state) {
  std::vector<Kernel> ks;
  ks.push_back(load(programs::vector_add_ptx(), "add_vector"));
  ks.push_back(load(programs::saxpy_ptx(), "saxpy"));
  ks.push_back(load(programs::copy_v2_ptx(), "copy_v2"));
  run_perf_bench(state, ks, 0);
}
BENCHMARK(BM_PerfLintCleanCorpus);

/// All three finding kinds priced in one kernel.
void BM_PerfLintOffender(benchmark::State& state) {
  std::vector<Kernel> ks;
  ks.push_back(load(offender_ptx(), "offender"));
  run_perf_bench(state, ks, 3);
}
BENCHMARK(BM_PerfLintOffender);

/// A full lint_kernel (races and perf) over programs::unrolled_ptx of
/// `copies` blocks: 7 instructions and 2 Global access sites per block,
/// no finding.
void BM_PerfLintStraightLine(benchmark::State& state) {
  const Kernel k = load(
      programs::unrolled_ptx(static_cast<unsigned>(state.range(0))),
      "unrolled");
  analysis::LintOptions opts;
  opts.perf = true;
  std::size_t findings = 0;
  for (auto _ : state) {
    const analysis::LintReport r = analysis::lint_kernel(k.prg, k.locs, opts);
    findings = r.findings.size();
    if (findings != 0) throw KernelError("unrolled kernel has findings");
    benchmark::DoNotOptimize(r.findings.data());
  }
  state.counters["findings"] = static_cast<double>(findings);
  state.counters["sites"] =
      static_cast<double>(analysis::analyze_addresses(k.prg).size());
  state.counters["kernels_per_sec"] =
      benchmark::Counter(1, benchmark::Counter::kIsIterationInvariantRate);
}
BENCHMARK(BM_PerfLintStraightLine)
    ->Arg(12)
    ->Arg(40)
    ->Arg(85)
    ->Arg(400)
    ->Unit(benchmark::kMicrosecond);

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
