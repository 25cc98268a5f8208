// Experiment L12 — paper Listings 1 & 2: the PTX front end.
//
// Parses the verbatim Listing-1 vector-sum PTX and lowers it to the
// model, then diffs the result against the paper's hand translation
// (Listing 2): same parameter layout, same branch/reconvergence
// structure, 20 vs 23 instructions (the three cvta Movs the authors
// dropped by hand are kept by the mechanical lowering).  Benchmarks
// cover the lexer, parser, CFG/post-dominator analysis and lowering.
// BM_FrontEnd/{12,40,85,400} times parse + lower of unrolled kernels
// of growing length and splits the cost per instruction into lex,
// parse and lower counters.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>

#include "programs/corpus.h"
#include "ptx/cfg.h"
#include "ptx/lexer.h"
#include "ptx/lower.h"

namespace {

using namespace cac;

void print_diff() {
  const ptx::Program mech =
      ptx::load_ptx(programs::vector_add_ptx()).kernel("add_vector");
  const ptx::Program hand = programs::vector_add_listing2();
  std::printf(
      "L12 — Listing 1 -> model translation\n"
      "  mechanical lowering: %2zu instructions\n"
      "  paper's Listing 2:   %2zu instructions (cvta dropped by hand)\n",
      mech.size(), hand.size());
  const auto hm = histogram(mech);
  const auto hh = histogram(hand);
  std::printf("  histogram delta (mechanical - hand):");
  for (std::size_t k = 0; k < std::size(hm.counts); ++k) {
    if (hm.counts[k] != hh.counts[k]) {
      std::printf(" [variant %zu: %+d]", k,
                  static_cast<int>(hm.counts[k]) -
                      static_cast<int>(hh.counts[k]));
    }
  }
  std::printf("  (exactly the three cvta Movs)\n\n");
}

void BM_Lex(benchmark::State& state) {
  const std::string src = programs::vector_add_ptx();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ptx::lex(src));
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations() * src.size()));
}
BENCHMARK(BM_Lex);

void BM_Parse(benchmark::State& state) {
  const std::string src = programs::vector_add_ptx();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ptx::parse_module(src));
  }
}
BENCHMARK(BM_Parse);

void BM_LowerWithSyncInsertion(benchmark::State& state) {
  const ptx::AstModule ast = ptx::parse_module(programs::vector_add_ptx());
  for (auto _ : state) {
    benchmark::DoNotOptimize(ptx::lower(ast));
  }
}
BENCHMARK(BM_LowerWithSyncInsertion);

void BM_CfgAndPostdominators(benchmark::State& state) {
  ptx::LowerOptions no_sync;
  no_sync.insert_syncs = false;
  const ptx::Program prg =
      ptx::load_ptx(programs::scan_signature_ptx(), no_sync)
          .kernel("scan_signature");
  for (auto _ : state) {
    const ptx::Cfg cfg(prg.code());
    benchmark::DoNotOptimize(cfg.ipostdom());
  }
}
BENCHMARK(BM_CfgAndPostdominators);

void BM_FullFrontEndAllKernels(benchmark::State& state) {
  const std::string srcs[] = {
      programs::vector_add_ptx(),   programs::xor_cipher_ptx(),
      programs::scan_signature_ptx(), programs::reduce_shared_ptx(),
      programs::atomic_sum_ptx(),   programs::race_store_ptx(),
  };
  std::size_t instrs = 0;
  for (auto _ : state) {
    for (const std::string& s : srcs) {
      const ptx::LoweredModule m = ptx::load_ptx(s);
      for (const ptx::Program& k : m.kernels) instrs += k.size();
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(instrs));
}
BENCHMARK(BM_FullFrontEndAllKernels);

// Iteration time is parse_module + lower of programs::unrolled_ptx(n).
// Counters, in ns per lowered instruction: `lex_ns` a stand-alone
// ptx::lex of the source, `parse_ns` parse_module (which lexes as it
// goes), `lower_ns` lower.
void BM_FrontEnd(benchmark::State& state) {
  using Clock = std::chrono::steady_clock;
  const std::string src =
      programs::unrolled_ptx(static_cast<unsigned>(state.range(0)));
  const std::size_t instrs = ptx::load_ptx(src).kernels.at(0).size();
  double lex_ns = 0;
  double parse_ns = 0;
  double lower_ns = 0;
  for (auto _ : state) {
    const auto t0 = Clock::now();
    benchmark::DoNotOptimize(ptx::lex(src));
    const auto t1 = Clock::now();
    const ptx::AstModule ast = ptx::parse_module(src);
    const auto t2 = Clock::now();
    const ptx::LoweredModule m = ptx::lower(ast);
    const auto t3 = Clock::now();
    benchmark::DoNotOptimize(m.kernels.data());
    const auto ns = [](auto a, auto b) {
      return std::chrono::duration<double, std::nano>(b - a).count();
    };
    lex_ns += ns(t0, t1);
    parse_ns += ns(t1, t2);
    lower_ns += ns(t2, t3);
    state.SetIterationTime(ns(t1, t3) * 1e-9);
  }
  const double per = static_cast<double>(instrs);
  state.counters["instrs"] = per;
  state.counters["lex_ns"] =
      benchmark::Counter(lex_ns / per, benchmark::Counter::kAvgIterations);
  state.counters["parse_ns"] =
      benchmark::Counter(parse_ns / per, benchmark::Counter::kAvgIterations);
  state.counters["lower_ns"] =
      benchmark::Counter(lower_ns / per, benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_FrontEnd)->Arg(12)->Arg(40)->Arg(85)->Arg(400)->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

struct Banner {
  Banner() { print_diff(); }
} banner;

}  // namespace
