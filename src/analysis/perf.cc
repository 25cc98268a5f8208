#include "analysis/perf.h"

#include <algorithm>

#include "analysis/costmodel.h"
#include "ptx/cfg.h"

namespace cac::analysis {

namespace {

SourceLoc loc_of(const std::vector<SourceLoc>& locs, std::uint32_t pc) {
  return pc < locs.size() ? locs[pc] : SourceLoc{};
}

const char* access_word(const AccessSite& s) {
  if (s.atomic) return "atomic";
  return s.write ? "store" : "load";
}

/// The lowering expands `ld.v2`/`ld.v4` into one scalar access per
/// element at consecutive pcs sharing the statement's source location;
/// hardware issues the vector as a single wide access, so the scalar
/// components must be priced as one (a stride-8 pair of 4-byte loads
/// that tiles [8·tid, 8·tid+8) per lane is perfectly coalesced).
std::vector<AccessSite> merge_vector_components(
    const ProgramFacts& facts, const std::vector<SourceLoc>& locs) {
  std::vector<AccessSite> priced;
  std::uint32_t prev_pc = 0;
  for (const AccessSite& s : facts.sites) {
    if (!priced.empty()) {
      AccessSite& p = priced.back();
      if (s.pc == prev_pc + 1 && s.space == p.space && s.write == p.write &&
          !s.atomic && !p.atomic && !p.addr.is_top() &&
          loc_of(locs, s.pc) == loc_of(locs, p.pc) &&
          s.addr == p.addr.add(AffineExpr::constant(
                        static_cast<std::int64_t>(p.width)))) {
        p.width += s.width;
        prev_pc = s.pc;
        continue;
      }
    }
    priced.push_back(s);
    prev_pc = s.pc;
  }
  return priced;
}

void perf_memory(const ProgramFacts& facts, const LaunchEnv& env,
                 const std::vector<SourceLoc>& locs,
                 std::vector<PerfFinding>& out) {
  for (const AccessSite& s : merge_vector_components(facts, locs)) {
    const auto off = warp_offsets(s.addr, env);
    if (!off) continue;  // unknown form: never a false positive
    if (s.space == ptx::Space::Global) {
      const unsigned tx = global_transactions(*off, s.width);
      const unsigned ideal = ideal_transactions(s.width);
      if (tx <= ideal) continue;
      PerfFinding f;
      f.kind = PerfKind::UncoalescedGlobal;
      f.pc = s.pc;
      f.loc = loc_of(locs, s.pc);
      f.transactions_per_warp = tx;
      f.ideal_transactions = ideal;
      f.message = std::string("uncoalesced global ") + access_word(s) +
                  " of " + std::to_string(s.width) + " bytes at " +
                  s.addr.str() + ": " + std::to_string(tx) +
                  " transactions per warp (128-byte segments, ideal " +
                  std::to_string(ideal) + ")";
      out.push_back(std::move(f));
    } else if (s.space == ptx::Space::Shared) {
      const unsigned degree = shared_conflict_degree(*off, s.width);
      if (degree < 2) continue;
      PerfFinding f;
      f.kind = PerfKind::SharedBankConflict;
      f.pc = s.pc;
      f.loc = loc_of(locs, s.pc);
      f.conflict_degree = degree;
      f.message = std::string("shared ") + access_word(s) + " of " +
                  std::to_string(s.width) + " bytes at " + s.addr.str() +
                  ": " + std::to_string(degree) +
                  "-way bank conflict (32 banks of 4 bytes)";
      out.push_back(std::move(f));
    }
  }
}

/// Does the guard predicate provably oscillate within a warp?  True
/// for a modulo component over tid.x (`tid % 2` flips every lane);
/// affine-only predicates are monotone across consecutive lanes and
/// stay quiet (the boundary-guard idiom).
bool oscillates(const Guard& g) {
  if (!g.expr.has_mod()) return false;
  for (const Term& t : g.expr.mod_terms()) {
    if (t.sym.kind == Sym::Kind::Tid && t.sym.dim == 0) return true;
  }
  return false;
}

void perf_divergence(const ptx::Program& prg, const KernelAnalysis& ka,
                     const std::vector<SourceLoc>& locs,
                     std::vector<PerfFinding>& out) {
  const auto& taken_facts = ka.facts.taken_facts;
  for (std::uint32_t pc = 0; pc < prg.size(); ++pc) {
    if (!ka.divergent[pc]) continue;
    // Affine predicates are monotone in tid.x: at most one transition
    // per warp.  Flag only provably-oscillating guards (modulo over
    // tid.x) and guards beyond the domain (may-report).
    const auto fact = taken_facts.find(pc);
    if (fact != taken_facts.end() && !oscillates(fact->second)) continue;
    unsigned insns = 0, loads = 0;
    for (const std::uint32_t b : ka.divergent_region(pc)) {
      const ptx::Cfg::Block& block = ka.cfg.blocks()[b];
      for (std::uint32_t p = block.first; p < block.last; ++p) {
        const ptx::Instr& ins = prg.code()[p];
        // Mechanically inserted reconvergence Syncs and Nops are not
        // executed work.
        if (std::holds_alternative<ptx::ISync>(ins) ||
            std::holds_alternative<ptx::INop>(ins)) {
          continue;
        }
        ++insns;
        if (const auto* ld = std::get_if<ptx::ILd>(&ins)) {
          if (ld->space == ptx::Space::Global) ++loads;
        }
      }
    }
    if (insns == 0) continue;
    PerfFinding f;
    f.kind = PerfKind::DivergentRegion;
    f.pc = pc;
    f.loc = loc_of(locs, pc);
    f.divergent_insns = insns;
    f.global_loads = loads;
    f.message = "tid-dependent branch diverges within every warp: " +
                std::to_string(insns) +
                " instructions execute per-lane before reconvergence";
    if (loads != 0) {
      f.message += ", including " + std::to_string(loads) +
                   " global load" + (loads == 1 ? "" : "s") +
                   " issued under divergence";
    }
    out.push_back(std::move(f));
  }
}

}  // namespace

std::string to_string(PerfKind k) {
  switch (k) {
    case PerfKind::UncoalescedGlobal: return "uncoalesced-global";
    case PerfKind::SharedBankConflict: return "shared-bank-conflict";
    case PerfKind::DivergentRegion: return "divergent-region";
  }
  return "?";
}

PerfReport analyze_perf(const ptx::Program& prg,
                        const std::vector<SourceLoc>& locs,
                        const LaunchEnv& env) {
  if (prg.empty()) return {};
  return analyze_perf(prg, locs, KernelAnalysis(prg, env));
}

PerfReport analyze_perf(const ptx::Program& prg,
                        const std::vector<SourceLoc>& locs,
                        const KernelAnalysis& ka) {
  PerfReport report;
  perf_memory(ka.facts, ka.env, locs, report.findings);
  std::vector<PerfFinding> divergence;
  perf_divergence(prg, ka, locs, divergence);
  // Hotspot ranking: biggest divergent region first, pc breaks ties.
  std::stable_sort(divergence.begin(), divergence.end(),
                   [](const PerfFinding& a, const PerfFinding& b) {
                     return a.divergent_insns != b.divergent_insns
                                ? a.divergent_insns > b.divergent_insns
                                : a.pc < b.pc;
                   });
  report.findings.insert(report.findings.end(),
                         std::make_move_iterator(divergence.begin()),
                         std::make_move_iterator(divergence.end()));
  return report;
}

}  // namespace cac::analysis
