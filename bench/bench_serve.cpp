// The verification service itself as the benchmark subject: what a
// client pays for a cold verification round trip, what the
// content-addressed verdict cache collapses that to on resubmission
// (an exact copy through the memo of request texts, an edited copy
// through the key), what the key itself costs, and how many
// requests/sec the daemon sustains as concurrent clients pile on
// (1/4/16).
//
// Everything runs in-process but over a real AF_UNIX socket with the
// real frame protocol, so the measured path is exactly what
// `cacval submit` pays minus process startup.
//
// tools/bench_to_json.py snapshots these into BENCH_explore.json
// (section `serve`), so the cold/cached ratio and the throughput
// scaling accumulate a trajectory across PRs.
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "front/cache.h"
#include "front/serve.h"
#include "programs/corpus.h"
#include "support/fault.h"

namespace {

using namespace cac;

// A tiny two-thread kernel: one round trip's verification work is a
// 16-state exploration (~tens of microseconds), so the numbers below
// measure the service, not the workload.
const char* kTinyKernel = R"(
.version 6.0
.target sm_30
.address_size 64
.visible .entry k(
  .param .u64 out
)
{
  .reg .u32 %r<3>;
  .reg .u64 %rd<2>;
  ld.param.u64 %rd1, [out];
  mov.u32 %r1, %tid.x;
  st.global.u32 [%rd1], %r1;
  ret;
}
)";

front::CheckRequest tiny_request(std::uint32_t salt) {
  front::CheckRequest r;
  r.file = "bench.ptx";
  r.source = kTinyKernel;
  r.launch.block = {2, 1, 1};
  r.launch.warp_size = 1;
  r.launch.global_bytes = 64;
  r.launch.params = {{"out", 0}};
  // The salt lands in an initial cell: structurally distinct request
  // (fresh cache key), identical amount of exploration work.
  r.launch.inits = {{32, salt}};
  return r;
}

/// One in-process daemon on a fresh AF_UNIX socket.
struct BenchServer {
  BenchServer() {
    dir = std::filesystem::temp_directory_path() /
          ("cac_bench_serve_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter++));
    std::filesystem::create_directories(dir);
    front::ServeOptions opts;
    opts.unix_path = dir / "sock";
    opts.workers = 4;
    server = std::make_unique<front::Server>(std::move(opts));
    server->start();
  }

  ~BenchServer() {
    server->stop();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }

  front::Client connect() { return front::Client::connect(dir / "sock"); }

  std::filesystem::path dir;
  std::unique_ptr<front::Server> server;
  static inline int counter = 0;
};

/// Cold submissions: every request has a fresh cache key, so each
/// round trip pays parse + lower + key + explore + respond.
void BM_ServeColdSubmission(benchmark::State& state) {
  BenchServer bs;
  front::Client client = bs.connect();
  std::uint32_t salt = 1;
  for (auto _ : state) {
    const front::Client::Reply r =
        client.call(front::to_json(front::Request{tiny_request(salt++)}));
    if (r.doc.str_or("status", "") != "ok" ||
        r.doc.bool_or("cached", false)) {
      throw std::runtime_error("cold submission misbehaved: " + r.raw);
    }
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["jobs_run"] =
      static_cast<double>(bs.server->stats().jobs_run);
}
BENCHMARK(BM_ServeColdSubmission)->Unit(benchmark::kMicrosecond);

/// Cached resubmission of one verdict, byte for byte: the round trip
/// collapses to frame + memo lookup + LRU hit + verbatim replay, with
/// no JSON parse and no lowering.  The cold/cached ratio is the
/// service's headline number (CI asserts >=100x end to end in
/// tools/serve_crash_drill.py).
void BM_ServeCachedSubmission(benchmark::State& state) {
  BenchServer bs;
  front::Client client = bs.connect();
  const std::string payload =
      front::to_json(front::Request{tiny_request(0)});
  client.call(payload);  // warm the cache
  for (auto _ : state) {
    const front::Client::Reply r = client.call(payload);
    if (!r.doc.bool_or("cached", false)) {
      throw std::runtime_error("expected a cache hit: " + r.raw);
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeCachedSubmission)->Unit(benchmark::kMicrosecond);

/// Cached resubmission of an edited copy: each request prepends a
/// different comment line to the warm request's source, so its text
/// misses the memo and the round trip pays parse + lower + key before
/// the LRU hit.
void BM_ServeVariantSubmission(benchmark::State& state) {
  BenchServer bs;
  front::Client client = bs.connect();
  front::CheckRequest req = tiny_request(0);
  client.call(front::to_json(front::Request{req}));  // warm the cache
  // The payload with "// variant N" in front of the source, split
  // around N.
  req.source = std::string("// variant #\n") + kTinyKernel;
  const std::string payload = front::to_json(front::Request{req});
  const std::size_t at = payload.find('#');
  const std::string head = payload.substr(0, at);
  const std::string tail = payload.substr(at + 1);
  std::uint64_t n = 0;
  for (auto _ : state) {
    const front::Client::Reply r =
        client.call(head + std::to_string(n++) + tail);
    if (!r.doc.bool_or("cached", false)) {
      throw std::runtime_error("expected a cache hit: " + r.raw);
    }
  }
  if (bs.server->stats().memo_hits != 0) {
    throw std::runtime_error("a variant hit the memo");
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeVariantSubmission)->Unit(benchmark::kMicrosecond);

/// front::cache_key of a lint request over programs::unrolled_ptx(n):
/// lower the module and hash its canonical text, the work a request
/// that misses the memo pays before the cache lookup.
void BM_ServeKey(benchmark::State& state) {
  front::LintRequest req;
  req.file = "unrolled.ptx";
  req.source = programs::unrolled_ptx(static_cast<unsigned>(state.range(0)));
  const front::Request r{req};
  for (auto _ : state) {
    benchmark::DoNotOptimize(front::cache_key(r));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServeKey)
    ->Arg(12)
    ->Arg(40)
    ->Arg(85)
    ->Arg(400)
    ->Unit(benchmark::kMicrosecond);

/// Sustained request throughput at N concurrent clients, each its own
/// connection, all resubmitting warm verdicts round-robin across a
/// small working set.  items_per_second is the service's requests/sec.
void BM_ServeThroughput(benchmark::State& state) {
  const auto clients = static_cast<std::uint32_t>(state.range(0));
  constexpr std::uint32_t kWorkingSet = 8;
  constexpr std::uint32_t kPerClient = 16;  // requests per iteration
  BenchServer bs;
  std::vector<std::string> payloads;
  payloads.reserve(kWorkingSet);
  {
    front::Client warm = bs.connect();
    for (std::uint32_t i = 0; i < kWorkingSet; ++i) {
      payloads.push_back(
          front::to_json(front::Request{tiny_request(i)}));
      warm.call(payloads.back());
    }
  }
  for (auto _ : state) {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::uint32_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        front::Client client = bs.connect();
        for (std::uint32_t i = 0; i < kPerClient; ++i) {
          client.call(payloads[(c + i) % kWorkingSet]);
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(clients) * kPerClient);
  state.counters["clients"] = clients;
  // Health counters (docs/robustness.md): all zero on a healthy box;
  // a nonzero trajectory in BENCH_explore.json means the bench itself
  // started absorbing faults.
  const front::ServeStats ss = bs.server->stats();
  state.counters["shed_requests"] = static_cast<double>(ss.shed_requests);
  state.counters["reaped_clients"] = static_cast<double>(ss.reaped_clients);
}
BENCHMARK(BM_ServeThroughput)
    ->ArgName("clients")
    ->Arg(1)
    ->Arg(4)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// What a *disabled* fault seam costs per guarded call site: one
/// relaxed atomic load, nothing else.  This is the
/// zero-overhead-when-disabled guard — tools/bench_to_json.py
/// snapshots it (section `fault`), so any work creeping onto the fast
/// path shows up as this number leaving the ~1ns band.
void BM_FaultSeamDisabled(benchmark::State& state) {
  if (support::fault_active()) {
    throw std::runtime_error("fault seam unexpectedly armed");
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(support::fault_check("write", "bench.ckpt"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FaultSeamDisabled);

/// The armed-but-missing slow path (a plan is installed, but no rule
/// matches this site): mutex + rule scan per call.  The gap between
/// this and BM_FaultSeamDisabled is the chaos harness's own observer
/// cost on every guarded syscall it does NOT perturb.
void BM_FaultSeamArmedMiss(benchmark::State& state) {
  support::ScopedFaultPlan plan("op=connect,path=never-*,nth=1,err=EIO");
  for (auto _ : state) {
    benchmark::DoNotOptimize(support::fault_check("write", "bench.ckpt"));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FaultSeamArmedMiss);

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
