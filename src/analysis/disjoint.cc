#include "analysis/disjoint.h"

#include <algorithm>
#include <deque>
#include <numeric>

#include "ptx/cfg.h"

namespace cac::analysis {

namespace {

using ptx::Space;

bool add_ck(std::int64_t a, std::int64_t b, std::int64_t& out) {
  return !__builtin_add_overflow(a, b, &out);
}

bool mul_ck(std::int64_t a, std::int64_t b, std::int64_t& out) {
  return !__builtin_mul_overflow(a, b, &out);
}

bool intervals_overlap(std::int64_t a, unsigned wa, std::int64_t b,
                       unsigned wb) {
  return a < b + static_cast<std::int64_t>(wb) &&
         b < a + static_cast<std::int64_t>(wa);
}

/// Whether the pair could constitute a data race at all: some write,
/// and not the atomic-atomic carve-out.
bool conflicting(const AccessSite& a, const AccessSite& b) {
  return (a.write || b.write) && !(a.atomic && b.atomic);
}

// --- exact enumeration under a known launch ----------------------------

struct EnumPlan {
  bool feasible = false;
  // Tid/CtaId dims appearing in either address expression.
  bool tid_dim[3] = {};
  bool cta_dim[3] = {};
  // Threads in scope indistinguishable by the appearing dims exist, so
  // two distinct threads may share an assignment of the appearing syms.
  bool clones = false;
};

EnumPlan plan_enumeration(const AccessSite& a, const AccessSite& b,
                          const LaunchEnv& env) {
  EnumPlan p;
  if (!env.known || a.addr.is_top() || b.addr.is_top()) return p;
  for (const AccessSite* s : {&a, &b}) {
    for (const auto* terms : {&s->addr.terms(), &s->addr.mod_terms()}) {
      for (const Term& t : *terms) {
        switch (t.sym.kind) {
          case Sym::Kind::Tid: p.tid_dim[t.sym.dim] = true; break;
          case Sym::Kind::CtaId: p.cta_dim[t.sym.dim] = true; break;
          default: return p;  // symbolic param / unfolded launch symbol
        }
      }
    }
  }
  std::uint64_t combos = 1, extra = 1;
  for (int d = 0; d < 3; ++d) {
    if (p.tid_dim[d]) combos *= env.ntid[d] * std::uint64_t{env.ntid[d]};
    else extra *= env.ntid[d];
    if (a.space == Space::Global) {
      if (p.cta_dim[d]) {
        combos *= env.nctaid[d] * std::uint64_t{env.nctaid[d]};
      } else {
        extra *= env.nctaid[d];
      }
    } else if (p.cta_dim[d]) {
      combos *= env.nctaid[d];  // ctaid is common to both threads
    }
    if (combos > (1u << 20)) return p;
  }
  p.clones = extra > 1;
  p.feasible = true;
  return p;
}

/// c + Σ k·v over `terms` with the per-side values for appearing dims.
/// Returns false on int64 overflow.
bool eval_sum(std::int64_t c, const std::vector<Term>& terms,
              const std::int64_t tid[3], const std::int64_t cta[3],
              std::int64_t& out) {
  out = c;
  for (const Term& t : terms) {
    const std::int64_t v =
        t.sym.kind == Sym::Kind::Tid ? tid[t.sym.dim] : cta[t.sym.dim];
    std::int64_t prod = 0;
    if (!mul_ck(t.coeff, v, prod) || !add_ck(out, prod, out)) return false;
  }
  return true;
}

/// The address, modulo component included.  Returns false on int64
/// overflow.
bool eval(const AffineExpr& e, const std::int64_t tid[3],
          const std::int64_t cta[3], std::int64_t& out) {
  if (!eval_sum(e.constant_term(), e.terms(), tid, cta, out)) return false;
  if (!e.has_mod()) return true;
  std::int64_t inner = 0;
  if (!eval_sum(e.mod_constant(), e.mod_terms(), tid, cta, inner)) {
    return false;
  }
  // The inner value is nonnegative by construction (affine.h), where
  // `%` is the mathematical mod; anything else is left unevaluated.
  std::int64_t prod = 0;
  return inner >= 0 && mul_ck(e.mod_scale(), inner % e.modulus(), prod) &&
         add_ck(out, prod, out);
}

/// Iterate assignments of the flagged dims (others pinned to 0);
/// `f(vals)` returns true to stop early.
template <typename F>
bool for_each_assignment(const bool dims[3], const std::uint32_t bound[3],
                         std::int64_t vals[3], F&& f) {
  for (std::uint32_t x = 0; x < (dims[0] ? bound[0] : 1); ++x) {
    for (std::uint32_t y = 0; y < (dims[1] ? bound[1] : 1); ++y) {
      for (std::uint32_t z = 0; z < (dims[2] ? bound[2] : 1); ++z) {
        vals[0] = dims[0] ? x : 0;
        vals[1] = dims[1] ? y : 0;
        vals[2] = dims[2] ? z : 0;
        if (f()) return true;
      }
    }
  }
  return false;
}

enum class EnumOutcome { NoOverlap, Overlap, Infeasible };

/// Exhaustively test all pairs of distinct thread identities in scope.
/// For Shared the two threads share a block (common ctaid); for Global
/// each side carries its own (ctaid, tid).
EnumOutcome enumerate_overlap(const AccessSite& a, const AccessSite& b,
                              const LaunchEnv& env, const EnumPlan& p) {
  const bool shared = a.space == Space::Shared;
  std::int64_t tid_a[3], tid_b[3], cta_a[3], cta_b[3];
  bool infeasible = false;
  const bool no_cta[3] = {};
  const bool hit = for_each_assignment(
      p.cta_dim, env.nctaid, cta_a, [&] {
        // Shared: ctaid is common; Global: side b gets its own below.
        return for_each_assignment(
            shared ? no_cta : p.cta_dim, env.nctaid, cta_b, [&] {
              if (shared) {
                cta_b[0] = cta_a[0]; cta_b[1] = cta_a[1]; cta_b[2] = cta_a[2];
              }
              return for_each_assignment(p.tid_dim, env.ntid, tid_a, [&] {
                return for_each_assignment(p.tid_dim, env.ntid, tid_b, [&] {
                  const bool same_identity =
                      std::equal(tid_a, tid_a + 3, tid_b) &&
                      (shared || std::equal(cta_a, cta_a + 3, cta_b));
                  if (same_identity && !p.clones) return false;
                  std::int64_t va = 0, vb = 0;
                  if (!eval(a.addr, tid_a, cta_a, va) ||
                      !eval(b.addr, tid_b, cta_b, vb)) {
                    infeasible = true;
                    return true;
                  }
                  return intervals_overlap(va, a.width, vb, b.width);
                });
              });
            });
      });
  if (infeasible) return EnumOutcome::Infeasible;
  return hit ? EnumOutcome::Overlap : EnumOutcome::NoOverlap;
}

// --- static window / stride rules --------------------------------------

bool uniform_in(Sym::Kind k, Space space) {
  switch (k) {
    case Sym::Kind::NTid:
    case Sym::Kind::NCtaId:
    case Sym::Kind::Param:
      return true;  // launch constants / arguments: same for all threads
    case Sym::Kind::CtaId:
    case Sym::Kind::GidBase:
      // Shared races involve threads of one block, which agree on
      // ctaid (and hence on ctaid*ntid).
      return space == Space::Shared;
    case Sym::Kind::Tid:
      return false;
  }
  return false;
}

/// A site with its classification key: the address terms split into
/// the part every thread in the conflict scope shares and the part
/// that varies per thread.  Worked out once per site.
struct KeyedSite {
  const AccessSite& site;
  std::vector<Term> uniform, varying;
};

KeyedSite split_terms(const AccessSite& s) {
  KeyedSite out{s, {}, {}};
  for (const Term& t : s.addr.terms()) {
    (uniform_in(t.sym.kind, s.space) ? out.uniform : out.varying)
        .push_back(t);
  }
  return out;
}

std::vector<KeyedSite> split_terms(const std::vector<AccessSite>& sites) {
  std::vector<KeyedSite> out;
  out.reserve(sites.size());
  for (const AccessSite& s : sites) out.push_back(split_terms(s));
  return out;
}

PairVerdict classify_static(const KeyedSite& sa, const KeyedSite& sb) {
  const AccessSite& a = sa.site;
  const AccessSite& b = sb.site;
  if (a.addr.is_top() || b.addr.is_top()) return PairVerdict::MayConflict;
  // The window and stride rules read the affine terms only; a modulo
  // component (`tid % 4`) varies per thread outside them.
  if (a.addr.has_mod() || b.addr.has_mod()) return PairVerdict::MayConflict;
  // The uniform parts must cancel exactly for the offset argument to
  // say anything about the difference of the two addresses.
  if (sa.uniform != sb.uniform) return PairVerdict::MayConflict;
  std::int64_t d = 0;  // base offset a - b
  if (!add_ck(a.addr.constant_term(), -b.addr.constant_term(), d)) {
    return PairVerdict::MayConflict;
  }

  if (sa.varying.empty() && sb.varying.empty()) {
    // Every thread in scope computes the same two addresses; the pair
    // overlaps iff the two fixed windows do.  Assumes >= 2 threads in
    // scope (analyze_races re-checks under a known launch).
    if (!intervals_overlap(d, a.width, 0, b.width)) {
      return PairVerdict::Disjoint;
    }
    return conflicting(a, b) ? PairVerdict::ProvablyRacing
                             : PairVerdict::MayConflict;
  }

  if (sa.varying == sb.varying) {
    // a(t) - b(t') = d + sum k_i * (s_i(t) - s_i(t')), an element of
    // d + gZ with g = gcd |k_i|.  Restricted to power-of-two g so the
    // congruence survives the machine's mod-2^width address wrap.
    std::uint64_t g = 0;
    for (const Term& t : sa.varying) {
      const std::uint64_t k =
          t.coeff < 0 ? -static_cast<std::uint64_t>(t.coeff)
                      : static_cast<std::uint64_t>(t.coeff);
      g = std::gcd(g, k);
    }
    if (g == 0 || (g & (g - 1)) != 0) return PairVerdict::MayConflict;
    const auto gi = static_cast<std::int64_t>(g);
    const std::int64_t r = ((d % gi) + gi) % gi;
    // No element of r + gZ falls in the open overlap window (-wa, wb).
    if (r >= static_cast<std::int64_t>(b.width) &&
        r <= gi - static_cast<std::int64_t>(a.width)) {
      return PairVerdict::Disjoint;
    }
    return PairVerdict::MayConflict;  // overlap plausible, not proven
  }
  return PairVerdict::MayConflict;
}

/// Threads in the conflict scope of `space` under a known launch.
std::uint64_t scope_threads(Space space, const LaunchEnv& env) {
  std::uint64_t n =
      std::uint64_t{env.ntid[0]} * env.ntid[1] * env.ntid[2];
  if (space == Space::Global) {
    n *= std::uint64_t{env.nctaid[0]} * env.nctaid[1] * env.nctaid[2];
  }
  return n;
}

/// classify_pair on keyed sites: exact enumeration when the launch
/// allows it, else the window/stride rules.  Either way ProvablyRacing
/// needs a conflicting pair (a write, not two atomics).
PairVerdict classify(const KeyedSite& ka, const KeyedSite& kb,
                     const LaunchEnv& env) {
  const AccessSite& a = ka.site;
  const AccessSite& b = kb.site;
  if (a.space != b.space) return PairVerdict::Disjoint;
  const EnumPlan plan = plan_enumeration(a, b, env);
  if (plan.feasible) {
    switch (enumerate_overlap(a, b, env, plan)) {
      case EnumOutcome::NoOverlap:
        return PairVerdict::Disjoint;
      case EnumOutcome::Overlap:
        return conflicting(a, b) ? PairVerdict::ProvablyRacing
                                 : PairVerdict::MayConflict;
      case EnumOutcome::Infeasible:
        break;
    }
  }
  PairVerdict v = classify_static(ka, kb);
  if (v == PairVerdict::ProvablyRacing && env.known &&
      scope_threads(a.space, env) < 2) {
    // The "all threads hit one address" argument needs two threads.
    return PairVerdict::Disjoint;
  }
  return v;
}

/// Whether classify can find a pair holding `s` ProvablyRacing at all:
/// the window rule needs an address with no thread-varying term, and
/// enumeration (plan_enumeration) a known launch and an address over
/// tid/ctaid alone.  A site with a modulo component is never skipped.
bool may_race(const KeyedSite& s, const LaunchEnv& env) {
  const AffineExpr& addr = s.site.addr;
  if (addr.is_top()) return false;
  if (s.varying.empty() || addr.has_mod()) return true;
  return env.known &&
         std::all_of(addr.terms().begin(), addr.terms().end(),
                     [](const Term& t) {
                       return t.sym.kind == Sym::Kind::Tid ||
                              t.sym.kind == Sym::Kind::CtaId;
                     });
}

/// Instruction-level reachability that refuses to traverse a barrier:
/// returns the pcs reachable from `from` (exclusive of paths through
/// IBar).  Accesses separated by a barrier on every path are ordered
/// by the barrier and cannot race — unless the barrier itself is
/// divergent, which the barrier-divergence lint pass reports.
std::vector<bool> bar_free_reach(const ptx::Program& prg,
                                 std::uint32_t from) {
  std::vector<bool> seen(prg.size(), false);
  std::deque<std::uint32_t> work;
  auto push = [&](std::uint32_t pc) {
    if (pc < prg.size() && !seen[pc]) {
      seen[pc] = true;
      work.push_back(pc);
    }
  };
  push(from);
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

}  // namespace

std::string to_string(PairVerdict v) {
  switch (v) {
    case PairVerdict::Disjoint: return "disjoint";
    case PairVerdict::MayConflict: return "may-conflict";
    case PairVerdict::ProvablyRacing: return "provably-racing";
  }
  return "?";
}

PairVerdict classify_pair(const AccessSite& a, const AccessSite& b,
                          const LaunchEnv& env) {
  return classify(split_terms(a), split_terms(b), env);
}

RaceCandidateReport analyze_races(const ptx::Program& prg,
                                  const LaunchEnv& env) {
  if (prg.empty()) return {};
  return analyze_races(prg, KernelAnalysis(prg, env));
}

RaceCandidateReport analyze_races(const ptx::Program& prg,
                                  const KernelAnalysis& ka) {
  RaceCandidateReport report;
  const std::vector<AccessSite>& sites = ka.facts.sites;
  const std::vector<KeyedSite> keys = split_terms(sites);

  // Blocks every thread is guaranteed to execute: the post-dominator
  // chain of the entry block.
  std::vector<bool> on_spine(ka.cfg.blocks().size() + 1, false);
  for (std::uint32_t b = 0; b != ka.cfg.exit_id(); b = ka.ipostdom[b]) {
    on_spine[b] = true;
  }
  // Bar-free reachability from a site, worked out on first use: only
  // the sites of a pair with a proven overlap ever need it.
  std::vector<std::vector<bool>> reach(sites.size());
  auto reaches = [&](std::size_t from, std::uint32_t to_pc) {
    if (reach[from].empty()) {
      reach[from] = bar_free_reach(prg, sites[from].pc);
    }
    return reach[from][to_pc];
  };

  for (std::size_t i = 0; i < sites.size(); ++i) {
    // Skipping a site no pair can race through keeps the common case,
    // per-thread addresses under an unknown launch, linear.
    if (!may_race(keys[i], ka.env)) continue;
    for (std::size_t j = i; j < sites.size(); ++j) {
      const AccessSite& a = sites[i];
      const AccessSite& b = sites[j];
      // Without a write, or with two atomics, the pair cannot race.
      if (a.space != b.space || !conflicting(a, b)) continue;
      if (classify(keys[i], keys[j], ka.env) !=
          PairVerdict::ProvablyRacing) {
        continue;
      }
      const bool always_executed = on_spine[ka.cfg.block_of(a.pc)] &&
                                   on_spine[ka.cfg.block_of(b.pc)];
      if (always_executed &&
          (i == j || reaches(i, b.pc) || reaches(j, a.pc))) {
        report.pairs.push_back(SitePair{a, b});
      }
    }
  }
  return report;
}

std::vector<std::uint32_t> independent_access_pcs(const ptx::Program& prg,
                                                  const LaunchEnv& env) {
  const std::vector<AccessSite> sites = analyze_addresses(prg, env);
  const std::vector<KeyedSite> keys = split_terms(sites);
  std::vector<std::uint32_t> out;
  for (const KeyedSite& a : keys) {
    bool independent = true;
    for (const KeyedSite& b : keys) {
      if (a.site.space != b.site.space) continue;
      if (!a.site.write && !b.site.write) continue;  // reads always commute
      if (classify(a, b, env) != PairVerdict::Disjoint) {
        independent = false;
        break;
      }
    }
    if (independent) out.push_back(a.site.pc);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace cac::analysis
