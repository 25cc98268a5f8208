// Experiment F2 — paper Fig. 2: the warp reconvergence function.
//
// sync() walks the divergence tree; this bench measures its cost as a
// function of tree shape (depth of nested divergence, number of
// leaves) and verifies along the way that reconvergence restores a
// canonical uniform warp.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "sem/warp.h"
#include "support/diag.h"

namespace {

using namespace cac;

/// A left-nested divergence tree of `leaves` uniform leaves with
/// staggered pcs, the shape produced by properly nested divergent
/// branches: the innermost pair waits at pc `base`, and each enclosing
/// level's partner waits one Sync further (pc base+i-1), exactly where
/// the pair below it lands after reconverging.  Such a tree
/// reconverges in leaves-1 sync() applications.
std::vector<std::uint32_t> lane_range(std::uint32_t first, std::uint32_t n) {
  std::vector<std::uint32_t> out(n);
  for (std::uint32_t i = 0; i < n; ++i) out[i] = first + i;
  return out;
}

sem::Warp nested_tree(std::uint32_t leaves, std::uint32_t threads_per_leaf,
                      std::uint32_t base) {
  const std::uint32_t width = leaves * threads_per_leaf;
  sem::DivTree acc =
      sem::DivTree::leaf(width, base, lane_range(0, threads_per_leaf));
  for (std::uint32_t i = 1; i < leaves; ++i) {
    acc = sem::DivTree::div(
        acc, sem::DivTree::leaf(width, base + i - 1,
                                lane_range(i * threads_per_leaf,
                                           threads_per_leaf)));
  }
  sem::Warp w = sem::make_warp(0, width);
  w.set_tree(std::move(acc));
  return w;
}

void BM_SyncUniform(benchmark::State& state) {
  const sem::Warp proto = sem::make_warp(0, 32);
  for (auto _ : state) {
    sem::Warp w = proto;
    benchmark::DoNotOptimize(w = sem::sync_warp(std::move(w)));
  }
}
BENCHMARK(BM_SyncUniform);

void BM_SyncOneLevelMerge(benchmark::State& state) {
  const sem::Warp proto = nested_tree(2, 16, 0);
  for (auto _ : state) {
    sem::Warp w = proto;
    benchmark::DoNotOptimize(w = sem::sync_warp(std::move(w)));
  }
}
BENCHMARK(BM_SyncOneLevelMerge);

/// Full reconvergence of a `leaves`-leaf nested tree: apply sync()
/// until the warp is uniform, counting applications.
void BM_SyncNestedTree(benchmark::State& state) {
  const auto leaves = static_cast<std::uint32_t>(state.range(0));
  const sem::Warp proto = nested_tree(leaves, 4, 10);
  std::uint64_t applications = 0;
  for (auto _ : state) {
    sem::Warp w = proto;
    while (w.divergent()) {
      w = sem::sync_warp(std::move(w));
      ++applications;
    }
    if (w.thread_count() != 4ull * leaves ||
        w.uni_pc() != 10 + leaves - 1) {
      throw KernelError("sync lost threads or advanced wrongly");
    }
    benchmark::DoNotOptimize(w);
  }
  state.counters["sync_calls_per_reconvergence"] =
      static_cast<double>(applications) /
      static_cast<double>(state.iterations());
  state.counters["leaves"] = leaves;
}
BENCHMARK(BM_SyncNestedTree)->Arg(2)->Arg(4)->Arg(8)->Arg(16)->Arg(32);

/// Deep-copy cost of divergence trees (what the explorer pays).
void BM_WarpTreeCopy(benchmark::State& state) {
  const auto leaves = static_cast<std::uint32_t>(state.range(0));
  const sem::Warp proto = nested_tree(leaves, 4, 10);
  for (auto _ : state) {
    sem::Warp w = proto;
    benchmark::DoNotOptimize(w);
  }
  state.counters["leaves"] = leaves;
}
BENCHMARK(BM_WarpTreeCopy)->Arg(2)->Arg(8)->Arg(32);

struct Banner {
  Banner() {
    std::printf(
        "F2 — Fig. 2 sync(): reconvergence cost vs divergence-tree\n"
        "shape.  Each nested tree of k same-pc leaves reconverges to a\n"
        "canonical uniform warp in k-1 sync steps (counter below).\n\n");
  }
} banner;

}  // namespace
