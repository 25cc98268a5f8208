#include "analysis/lint.h"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <set>

#include "analysis/perf.h"
#include "ptx/cfg.h"
#include "ptx/defuse.h"

namespace cac::analysis {

namespace {

using ptx::Cfg;
using ptx::Instr;

SourceLoc loc_of(const std::vector<SourceLoc>& locs, std::uint32_t pc) {
  return pc < locs.size() ? locs[pc] : SourceLoc{};
}

// --- barrier divergence -------------------------------------------------

void lint_barriers(const ptx::Program& prg, const KernelAnalysis& ka,
                   const std::vector<SourceLoc>& locs,
                   std::vector<Finding>& out) {
  std::set<std::uint32_t> flagged;  // bar pcs, reported once
  for (std::uint32_t pc = 0; pc < prg.size(); ++pc) {
    if (!ka.divergent[pc]) continue;
    // A bar at the join is fine: the warp is uniform again there (the
    // corpus reductions place theirs exactly at joins).
    for (const std::uint32_t b : ka.divergent_region(pc)) {
      const Cfg::Block& block = ka.cfg.blocks()[b];
      for (std::uint32_t p = block.first; p < block.last; ++p) {
        if (std::holds_alternative<ptx::IBar>(prg.code()[p]) &&
            flagged.insert(p).second) {
          out.push_back(Finding{
              Pass::BarrierDivergence, Severity::Error, p, loc_of(locs, p),
              "bar.sync reachable inside the divergent region of the "
              "branch at pc " +
                  std::to_string(pc) +
                  ": threads that take the other side never arrive, the "
                  "block deadlocks"});
        }
      }
    }
  }
}

// --- uninitialized registers -------------------------------------------

std::uint32_t pred_key(const ptx::Pred& p) {
  return 0x80000000u | p.index;
}

/// The register or predicate a key names (inverse of Reg::key and
/// pred_key).
std::string key_name(std::uint32_t key) {
  if (key & 0x80000000u) {
    return to_string(ptx::Pred{static_cast<std::uint16_t>(key)});
  }
  return to_string(ptx::Reg{static_cast<ptx::TypeClass>(key >> 24),
                            static_cast<std::uint8_t>(key >> 16),
                            static_cast<std::uint16_t>(key)});
}

/// Per-pc register and predicate keys read and written (ptx::def_use,
/// worked out once per instruction), each key renumbered densely so a
/// set of keys is a flat bit set.
struct KeyedDefUse {
  std::vector<std::uint32_t> keys;  // dense index -> key, ascending
  // Flattened per-pc lists of dense indices; pc's reads are
  // reads[read_at[pc], read_at[pc + 1]), register reads first.
  std::vector<std::uint32_t> reads, writes, read_at, write_at;

  explicit KeyedDefUse(const std::vector<Instr>& code) {
    for (const Instr& i : code) {
      const ptx::DefUse du = ptx::def_use(i);
      read_at.push_back(static_cast<std::uint32_t>(reads.size()));
      write_at.push_back(static_cast<std::uint32_t>(writes.size()));
      for (const ptx::Reg& r : du.reads) reads.push_back(r.key());
      for (const ptx::Pred& p : du.pred_reads) reads.push_back(pred_key(p));
      for (const ptx::Reg& r : du.writes) writes.push_back(r.key());
      for (const ptx::Pred& p : du.pred_writes) writes.push_back(pred_key(p));
    }
    read_at.push_back(static_cast<std::uint32_t>(reads.size()));
    write_at.push_back(static_cast<std::uint32_t>(writes.size()));
    keys = reads;
    keys.insert(keys.end(), writes.begin(), writes.end());
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    for (std::vector<std::uint32_t>* list : {&reads, &writes}) {
      for (std::uint32_t& k : *list) {
        k = static_cast<std::uint32_t>(
            std::lower_bound(keys.begin(), keys.end(), k) - keys.begin());
      }
    }
  }
};

/// A set of dense key indices.
class KeySet {
 public:
  explicit KeySet(std::size_t n) : words_((n + 63) / 64, 0) {}
  [[nodiscard]] bool has(std::uint32_t i) const {
    return (words_[i / 64] >> (i % 64)) & 1;
  }
  void add(std::uint32_t i) { words_[i / 64] |= std::uint64_t{1} << (i % 64); }
  /// this |= o; whether that added a key.
  bool merge(const KeySet& o) {
    bool grew = false;
    for (std::size_t w = 0; w < words_.size(); ++w) {
      grew |= (o.words_[w] & ~words_[w]) != 0;
      words_[w] |= o.words_[w];
    }
    return grew;
  }

 private:
  std::vector<std::uint64_t> words_;
};

void lint_uninit(const ptx::Program& prg, const Cfg& cfg,
                 const std::vector<SourceLoc>& locs,
                 std::vector<Finding>& out) {
  // May-initialized analysis: the set of keys with at least one write
  // reaching block entry over the union of paths.  A read outside the
  // set has *zero* reaching definitions — guaranteed-garbage use.
  const KeyedDefUse du(prg.code());
  const std::size_t nkeys = du.keys.size();
  const auto& blocks = cfg.blocks();
  std::vector<KeySet> in(blocks.size(), KeySet(nkeys));
  std::vector<bool> reached(blocks.size(), false);
  std::vector<bool> queued(blocks.size(), false);
  std::deque<std::uint32_t> work;
  reached[0] = queued[0] = true;
  work.push_back(0);
  while (!work.empty()) {
    const std::uint32_t b = work.front();
    work.pop_front();
    queued[b] = false;
    KeySet s = in[b];
    for (std::uint32_t i = du.write_at[blocks[b].first];
         i < du.write_at[blocks[b].last]; ++i) {
      s.add(du.writes[i]);
    }
    for (const std::uint32_t succ : blocks[b].succs) {
      if (succ == cfg.exit_id()) continue;
      // Union join: the may-set at entry is the union over
      // predecessors, so merging adds keys monotonically.
      const bool grew = in[succ].merge(s);
      if ((grew || !reached[succ]) && !queued[succ]) {
        queued[succ] = true;
        work.push_back(succ);
      }
      reached[succ] = true;
    }
  }

  std::vector<std::uint32_t> reported;  // keys reported at this pc
  for (std::uint32_t b = 0; b < blocks.size(); ++b) {
    if (!reached[b]) continue;
    KeySet live = in[b];
    for (std::uint32_t pc = blocks[b].first; pc < blocks[b].last; ++pc) {
      reported.clear();
      for (std::uint32_t i = du.read_at[pc]; i < du.read_at[pc + 1]; ++i) {
        const std::uint32_t key = du.reads[i];
        if (live.has(key) ||
            std::find(reported.begin(), reported.end(), key) !=
                reported.end()) {
          continue;
        }
        reported.push_back(key);
        out.push_back(Finding{
            Pass::UninitRegister, Severity::Error, pc, loc_of(locs, pc),
            key_name(du.keys[key]) +
                " is read but never written on any path to pc " +
                std::to_string(pc),
            {}});
      }
      for (std::uint32_t i = du.write_at[pc]; i < du.write_at[pc + 1]; ++i) {
        live.add(du.writes[i]);
      }
    }
  }
}

// --- affine access passes ----------------------------------------------

void lint_shared_overflow(const std::vector<AccessSite>& sites,
                          const LintOptions& opts,
                          const std::vector<SourceLoc>& locs,
                          std::vector<Finding>& out) {
  if (opts.shared_bytes == 0) return;
  const auto limit = static_cast<std::int64_t>(opts.shared_bytes);
  for (const AccessSite& s : sites) {
    if (s.space != ptx::Space::Shared) continue;
    // Path-sensitive: the guards on the site clip the range, so an
    // access dominated by `if (tid < n)` is judged under that bound.
    const auto r = expr_range(s.addr, opts.launch, s.guards);
    if (!r) continue;
    if (r->first < 0 || r->second + static_cast<std::int64_t>(s.width) >
                            limit) {
      out.push_back(Finding{
          Pass::SharedOverflow, Severity::Error, s.pc, loc_of(locs, s.pc),
          "shared access of " + std::to_string(s.width) + " bytes at " +
              s.addr.str() + " can reach byte " +
              std::to_string(r->second + s.width - 1) +
              ", outside the declared shared layout of " +
              std::to_string(opts.shared_bytes) + " bytes"});
    }
  }
}

void lint_races(const RaceCandidateReport& report,
                const std::vector<SourceLoc>& locs,
                std::vector<Finding>& out) {
  for (const SitePair& p : report.pairs) {
    const char* what = p.a.write && p.b.write ? "write/write" : "read/write";
    std::string where = "pc " + std::to_string(p.b.pc);
    if (const SourceLoc l = loc_of(locs, p.b.pc); l.valid()) {
      where += " (line " + std::to_string(l.line) + ")";
    }
    out.push_back(Finding{
        Pass::RaceCandidate, Severity::Error, p.a.pc, loc_of(locs, p.a.pc),
        std::string(to_string(p.a.space)) + " " + what +
            " race: address " + p.a.addr.str() +
            (p.a.pc == p.b.pc
                 ? " is touched by every thread with no ordering"
                 : " overlaps the access at " + where +
                       " with no barrier between them")});
  }
}

}  // namespace

std::string to_string(Pass p) {
  switch (p) {
    case Pass::BarrierDivergence: return "barrier-divergence";
    case Pass::UninitRegister: return "uninit-register";
    case Pass::SharedOverflow: return "shared-overflow";
    case Pass::RaceCandidate: return "race-candidate";
    case Pass::UncoalescedGlobal: return "uncoalesced-global";
    case Pass::SharedBankConflict: return "shared-bank-conflict";
    case Pass::DivergentRegion: return "divergent-region";
  }
  return "?";
}

std::string to_string(Severity s) {
  return s == Severity::Error ? "error" : "warning";
}

std::size_t LintReport::errors() const {
  return static_cast<std::size_t>(
      std::count_if(findings.begin(), findings.end(), [](const Finding& f) {
        return f.severity == Severity::Error;
      }));
}

namespace {

/// Fold the perf passes' typed findings into lint findings: always
/// warnings, the structured cost carried alongside the message.
void fold_perf(const PerfReport& perf, std::vector<Finding>& out) {
  for (const PerfFinding& p : perf.findings) {
    Finding f;
    f.severity = Severity::Warning;
    f.pc = p.pc;
    f.loc = p.loc;
    f.message = p.message;
    switch (p.kind) {
      case PerfKind::UncoalescedGlobal:
        f.pass = Pass::UncoalescedGlobal;
        f.cost.emplace_back("transactions_per_warp", p.transactions_per_warp);
        f.cost.emplace_back("ideal_transactions", p.ideal_transactions);
        break;
      case PerfKind::SharedBankConflict:
        f.pass = Pass::SharedBankConflict;
        f.cost.emplace_back("conflict_degree", p.conflict_degree);
        break;
      case PerfKind::DivergentRegion:
        f.pass = Pass::DivergentRegion;
        f.cost.emplace_back("divergent_insns", p.divergent_insns);
        f.cost.emplace_back("global_loads", p.global_loads);
        break;
    }
    out.push_back(std::move(f));
  }
}

}  // namespace

LintReport lint_kernel(const ptx::Program& prg,
                       const std::vector<SourceLoc>& locs,
                       const LintOptions& opts) {
  LintReport report;
  if (prg.empty()) return report;
  const KernelAnalysis ka(prg, opts.launch);
  lint_barriers(prg, ka, locs, report.findings);
  lint_uninit(prg, ka.cfg, locs, report.findings);
  lint_shared_overflow(ka.facts.sites, opts, locs, report.findings);
  if (opts.check_races) {
    lint_races(analyze_races(prg, ka), locs, report.findings);
  }
  if (opts.perf) fold_perf(analyze_perf(prg, locs, ka), report.findings);
  std::stable_sort(report.findings.begin(), report.findings.end(),
                   [](const Finding& a, const Finding& b) {
                     return a.pc != b.pc
                                ? a.pc < b.pc
                                : static_cast<int>(a.pass) <
                                      static_cast<int>(b.pass);
                   });
  return report;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

}  // namespace

std::string render_text(const LintReport& report, const std::string& file,
                        const std::string& kernel) {
  std::string out;
  for (const Finding& f : report.findings) {
    out += file + ":";
    if (f.loc.valid()) {
      out += std::to_string(f.loc.line) + ":" + std::to_string(f.loc.column) +
             ":";
    }
    out += " ";
    out += to_string(f.severity) + ": [" + to_string(f.pass) + "] " +
           kernel + ": " + f.message + " (pc " + std::to_string(f.pc) +
           ")\n";
  }
  if (report.findings.empty()) {
    out = file + ": " + kernel + ": clean\n";
  }
  return out;
}

std::string render_json(const LintReport& report, const std::string& file,
                        const std::string& kernel) {
  std::string out = "{\"file\":\"" + json_escape(file) + "\",\"kernel\":\"" +
                    json_escape(kernel) + "\",\"findings\":[";
  bool first = true;
  for (const Finding& f : report.findings) {
    if (!first) out += ",";
    first = false;
    out += "{\"pass\":\"" + to_string(f.pass) + "\",\"severity\":\"" +
           to_string(f.severity) + "\",\"pc\":" + std::to_string(f.pc) +
           ",\"line\":" + std::to_string(f.loc.line) +
           ",\"column\":" + std::to_string(f.loc.column) +
           ",\"message\":\"" + json_escape(f.message) + "\"";
    if (!f.cost.empty()) {
      out += ",\"cost\":{";
      bool first_cost = true;
      for (const auto& [key, value] : f.cost) {
        if (!first_cost) out += ",";
        first_cost = false;
        out += "\"" + key + "\":" + std::to_string(value);
      }
      out += "}";
    }
    out += "}";
  }
  out += "]}";
  return out;
}

}  // namespace cac::analysis
