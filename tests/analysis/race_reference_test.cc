// analyze_races keeps only the racing pairs, classifies them from
// per-site keys, skips the pairs and sites that cannot race and runs the
// bar-free BFS only for proven overlaps; independent_access_pcs reads
// the same keys.  This suite pins both against the plain pairing (every
// same-space pair through classify_pair, one BFS per site, then the
// spine gate), and pins lint's folded perf findings against the
// standalone analyze_perf, over the corpus, the .ptx files on disk,
// seeded random programs and long unrolled kernels.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/disjoint.h"
#include "analysis/lint.h"
#include "analysis/perf.h"
#include "common/random_program.h"
#include "programs/corpus.h"
#include "ptx/cfg.h"
#include "ptx/lower.h"

namespace cac::analysis {
namespace {

using PcPairs = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

// --- the reference pairing -----------------------------------------------

std::vector<bool> reference_reach(const ptx::Program& prg,
                                  std::uint32_t from) {
  std::vector<bool> seen(prg.size(), false);
  std::deque<std::uint32_t> work{from};
  seen[from] = true;
  auto push = [&](std::uint32_t pc) {
    if (pc < prg.size() && !seen[pc]) {
      seen[pc] = true;
      work.push_back(pc);
    }
  };
  while (!work.empty()) {
    const std::uint32_t pc = work.front();
    work.pop_front();
    const ptx::Instr& i = prg.code()[pc];
    if (pc != from && std::holds_alternative<ptx::IBar>(i)) continue;
    if (const auto* br = std::get_if<ptx::IBra>(&i)) {
      push(br->target);
    } else if (const auto* pb = std::get_if<ptx::IPBra>(&i)) {
      push(pb->target);
      push(pc + 1);
    } else if (!std::holds_alternative<ptx::IExit>(i)) {
      push(pc + 1);
    }
  }
  return seen;
}

PcPairs reference_racing(const ptx::Program& prg, const LaunchEnv& env) {
  PcPairs out;
  const std::vector<AccessSite> sites = analyze_addresses(prg, env);
  if (sites.empty()) return out;
  const ptx::Cfg cfg(prg.code());
  const std::vector<std::uint32_t> ipd = cfg.ipostdom();
  std::vector<bool> on_spine(cfg.blocks().size() + 1, false);
  for (std::uint32_t b = 0; b != cfg.exit_id(); b = ipd[b]) on_spine[b] = true;
  std::vector<std::vector<bool>> reach;
  for (const AccessSite& s : sites) {
    reach.push_back(reference_reach(prg, s.pc));
  }
  for (std::size_t i = 0; i < sites.size(); ++i) {
    for (std::size_t j = i; j < sites.size(); ++j) {
      const AccessSite& a = sites[i];
      const AccessSite& b = sites[j];
      if (a.space != b.space ||
          classify_pair(a, b, env) != PairVerdict::ProvablyRacing) {
        continue;
      }
      const bool bar_free = i == j || reach[i][b.pc] || reach[j][a.pc];
      if (bar_free && on_spine[cfg.block_of(a.pc)] &&
          on_spine[cfg.block_of(b.pc)]) {
        out.emplace_back(a.pc, b.pc);
      }
    }
  }
  return out;
}

std::vector<std::uint32_t> reference_independent(const ptx::Program& prg,
                                                 const LaunchEnv& env) {
  const std::vector<AccessSite> sites = analyze_addresses(prg, env);
  std::vector<std::uint32_t> out;
  for (const AccessSite& a : sites) {
    const bool independent =
        std::all_of(sites.begin(), sites.end(), [&](const AccessSite& b) {
          return a.space != b.space || (!a.write && !b.write) ||
                 classify_pair(a, b, env) == PairVerdict::Disjoint;
        });
    if (independent) out.push_back(a.pc);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

// --- perf findings as lint folds them -------------------------------------

using Cost = std::vector<std::pair<std::string, std::uint64_t>>;
using Folded = std::tuple<std::uint32_t, std::string, Cost>;

Cost cost_of(const PerfFinding& p) {
  switch (p.kind) {
    case PerfKind::UncoalescedGlobal:
      return {{"transactions_per_warp", p.transactions_per_warp},
              {"ideal_transactions", p.ideal_transactions}};
    case PerfKind::SharedBankConflict:
      return {{"conflict_degree", p.conflict_degree}};
    case PerfKind::DivergentRegion:
      return {{"divergent_insns", p.divergent_insns},
              {"global_loads", p.global_loads}};
  }
  return {};
}

// --- inputs -----------------------------------------------------------------

struct Input {
  std::string name;
  ptx::Program prg;
  std::vector<SourceLoc> locs;
};

void add_module(std::vector<Input>& out, const std::string& name,
                const std::string& source) {
  const ptx::LoweredModule mod = ptx::load_ptx(source);
  for (const ptx::Program& k : mod.kernels) {
    out.push_back({name + ":" + k.name(), k, mod.locs_for(k)});
  }
}

/// A Shared cell written, then read past a barrier, in a loop: the
/// read reaches the next iteration's write only along the back edge,
/// so the pair races through the reverse bar-free path alone.  After
/// the loop a second cell is written, then read past a barrier with no
/// way back: the barrier orders that pair.
const char* kLoopRace = R"(
.version 6.0
.target sm_30
.address_size 64

.shared .align 4 .b8 cell[8];

.visible .entry loop_race()
{
  .reg .pred %p<2>;
  .reg .u32 %r<4>;

  mov.u32 %r1, 0;
  mov.u32 %r2, cell;
LOOP:
  st.shared.u32 [%r2], %r1;
  bar.sync 0;
  ld.shared.u32 %r3, [%r2];
  add.u32 %r1, %r1, 1;
  setp.lt.u32 %p1, %r1, 4;
  @%p1 bra LOOP;
  st.shared.u32 [%r2+4], %r1;
  bar.sync 0;
  ld.shared.u32 %r3, [%r2+4];
  ret;
}
)";

std::vector<Input> inputs() {
  std::vector<Input> out;
  add_module(out, "loop_race", kLoopRace);
  for (const std::string& src :
       {programs::vector_add_ptx(), programs::xor_cipher_ptx(),
        programs::scan_signature_ptx(), programs::reduce_shared_ptx(),
        programs::atomic_sum_ptx(), programs::histogram_ptx(),
        programs::saxpy_ptx(), programs::copy_v2_ptx(),
        programs::warp_reduce_shfl_ptx(), programs::scan_prefix_ptx(),
        programs::reduce_shared_nobar_ptx(),
        programs::barrier_divergence_ptx(), programs::race_store_ptx()}) {
    add_module(out, "corpus", src);
  }
  for (const ptx::Program& p :
       {programs::vector_add_listing2(), programs::divergent_exit_program(),
        programs::straightline_program(8)}) {
    out.push_back({"corpus:" + p.name(), p, {}});
  }
  for (const char* dir : {"/examples/buggy", "/tests/data"}) {
    for (const auto& e : std::filesystem::recursive_directory_iterator(
             std::string(CAC_SOURCE_DIR) + dir)) {
      if (e.path().extension() != ".ptx") continue;
      std::ifstream in(e.path());
      std::ostringstream ss;
      ss << in.rdbuf();
      add_module(out, e.path().string(), ss.str());
    }
  }
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    testing::Rng rng(seed);
    testing::RandomProgramOptions o;
    o.n_instrs = 24;
    o.allow_stores = true;
    o.store_stride = 1u << (seed % 3);  // 1, 2 or 4 bytes: 1 and 2 overlap
    out.push_back({"random:" + std::to_string(seed),
                   testing::random_program(rng, o), {}});
  }
  for (const unsigned copies : {3u, 12u, 40u}) {
    add_module(out, "unrolled:" + std::to_string(copies),
               programs::unrolled_ptx(copies));
  }
  return out;
}

/// The unknown launch, and a known launch of two blocks of four threads
/// with every parameter valued, so the classifier enumerates.
std::vector<LaunchEnv> envs(const ptx::Program& prg) {
  LaunchEnv known;
  known.known = true;
  known.ntid[0] = 4;
  known.nctaid[0] = 2;
  std::uint64_t base = 0x1000;
  for (const ptx::ParamSlot& slot : prg.params()) {
    known.params[slot.offset] = base;
    base += 0x1000;
  }
  return {LaunchEnv{}, known};
}

TEST(RaceReference, RacingPairsMatchThePlainPairing) {
  std::size_t racing = 0, checked = 0;
  for (const Input& in : inputs()) {
    for (const LaunchEnv& env : envs(in.prg)) {
      SCOPED_TRACE(in.name + (env.known ? " (known launch)" : ""));
      const PcPairs want = reference_racing(in.prg, env);
      const RaceCandidateReport rep = analyze_races(in.prg, env);
      PcPairs got;
      for (const SitePair& p : rep.racing()) got.emplace_back(p.a.pc, p.b.pc);
      EXPECT_EQ(got, want);
      EXPECT_EQ(rep.any_racing(), !want.empty());
      racing += want.size();
      ++checked;
    }
  }
  EXPECT_GT(checked, 140u);
  // The inputs do race: a reference that finds nothing pins nothing.
  EXPECT_GT(racing, 20u);
}

TEST(RaceReference, IndependentPcsMatchThePlainPairing) {
  for (const Input& in : inputs()) {
    for (const LaunchEnv& env : envs(in.prg)) {
      SCOPED_TRACE(in.name + (env.known ? " (known launch)" : ""));
      EXPECT_EQ(independent_access_pcs(in.prg, env),
                reference_independent(in.prg, env));
    }
  }
}

TEST(RaceReference, LintFoldsExactlyTheStandalonePerfFindings) {
  std::size_t perf_findings = 0;
  for (const Input& in : inputs()) {
    for (const LaunchEnv& env : envs(in.prg)) {
      SCOPED_TRACE(in.name + (env.known ? " (known launch)" : ""));
      LintOptions opts;
      opts.launch = env;
      opts.perf = true;
      std::vector<Folded> folded;
      for (const Finding& f : lint_kernel(in.prg, in.locs, opts).findings) {
        if (f.severity == Severity::Warning) {
          folded.emplace_back(f.pc, f.message, f.cost);
        }
      }
      std::vector<Folded> want;
      for (const PerfFinding& p :
           analyze_perf(in.prg, in.locs, env).findings) {
        want.emplace_back(p.pc, p.message, cost_of(p));
      }
      std::sort(folded.begin(), folded.end());
      std::sort(want.begin(), want.end());
      EXPECT_EQ(folded, want);
      perf_findings += want.size();
    }
  }
  EXPECT_GT(perf_findings, 0u);
}

}  // namespace
}  // namespace cac::analysis
