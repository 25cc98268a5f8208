#include "equiv/cex.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "sched/explore.h"
#include "sem/launch.h"
#include "support/bits.h"

namespace cac::equiv {

using sym::SymPath;
using sym::SymWrite;
using sym::TermArena;
using sym::TermRef;
using sym::ThreadSummary;

namespace {

/// A symbolic input variable, classified by what it names.
struct InputVar {
  std::string name;
  unsigned width = 32;
  enum class Kind : std::uint8_t { Scalar, Pointer, Cell } kind;
  // Cell only:
  std::string region;
  std::uint64_t offset = 0;
  unsigned bytes = 4;
};

/// Split `region[offset]` cell-variable names (sym/state.cc).
bool parse_cell_name(const std::string& name, std::string& region,
                     std::uint64_t& offset) {
  const std::size_t lb = name.find('[');
  if (lb == std::string::npos || name.empty() || name.back() != ']') {
    return false;
  }
  region = name.substr(0, lb);
  const std::string num = name.substr(lb + 1, name.size() - lb - 2);
  if (num.empty()) return false;
  offset = 0;
  for (const char c : num) {
    if (c < '0' || c > '9') return false;
    offset = offset * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return true;
}

/// Every Var reachable from the summaries' conditions and writes.
std::vector<TermRef> collect_vars(
    const TermArena& arena, const std::vector<ThreadSummary>& sum_a,
    const std::vector<ThreadSummary>& sum_b) {
  std::unordered_set<TermRef> visited;
  std::vector<TermRef> vars;
  std::vector<TermRef> work;
  auto push = [&](TermRef t) {
    if (visited.insert(t).second) work.push_back(t);
  };
  for (const auto* side : {&sum_a, &sum_b}) {
    for (const ThreadSummary& s : *side) {
      for (const SymPath& p : s.paths) {
        push(p.cond);
        for (const SymWrite& w : p.writes) push(w.value);
      }
    }
  }
  while (!work.empty()) {
    const TermRef t = work.back();
    work.pop_back();
    const sym::TermNode& n = arena.node(t);
    switch (n.op) {
      case sym::Op::Var:
        vars.push_back(t);
        break;
      case sym::Op::Const:
        break;
      case sym::Op::Not:
      case sym::Op::Neg:
      case sym::Op::Popc:
      case sym::Op::Clz:
      case sym::Op::Brev:
      case sym::Op::ZExt:
      case sym::Op::SExt:
      case sym::Op::Trunc:
        push(n.a);
        break;
      case sym::Op::Ite:
        push(n.a);
        push(n.b);
        push(n.c);
        break;
      default:  // binary
        push(n.a);
        push(n.b);
        break;
    }
  }
  return vars;
}

std::uint64_t xorshift64(std::uint64_t& s) {
  s ^= s << 13;
  s ^= s >> 7;
  s ^= s << 17;
  return s;
}

/// One side's concrete stores under a valuation, or nullopt when two
/// threads disagree about a cell (a racy valuation no equivalence
/// claim can be built on).
using CellImage = std::map<std::pair<std::string, std::uint64_t>,
                           std::pair<unsigned, std::uint64_t>>;
std::optional<CellImage> eval_side(
    const TermArena& arena, const std::vector<ThreadSummary>& side,
    const std::unordered_map<std::string, std::uint64_t>& valuation) {
  CellImage image;
  for (const ThreadSummary& s : side) {
    const SymPath* live = nullptr;
    for (const SymPath& p : s.paths) {
      if (arena.evaluate(p.cond, valuation) != 0) {
        live = &p;
        break;  // path conditions partition the input space
      }
    }
    if (live == nullptr) continue;
    for (const SymWrite& w : live->writes) {
      const std::uint64_t v = arena.evaluate(w.value, valuation);
      const auto key = std::make_pair(w.region, w.offset);
      const auto it = image.find(key);
      if (it != image.end() && it->second.second != v) return std::nullopt;
      image[key] = {w.bytes, v};
    }
  }
  return image;
}

}  // namespace

CexSearch search_counterexample(
    const ptx::Program& a, const ptx::Program& b,
    const sem::KernelConfig& kc, const sym::SymEnv& env,
    const std::vector<ThreadSummary>& sum_a,
    const std::vector<ThreadSummary>& sum_b, const CexOptions& opts,
    const check::ModelCheckOptions::explorer_type& explorer) {
  CexSearch out;
  const TermArena& arena = *env.arena;

  // --- classify the symbolic inputs ---------------------------------
  std::vector<InputVar> inputs;
  for (const TermRef v : collect_vars(arena, sum_a, sum_b)) {
    InputVar iv;
    iv.name = arena.var_name(v);
    iv.width = arena.width(v);
    if (env.pointer_params.count(iv.name)) {
      iv.kind = InputVar::Kind::Pointer;
    } else if (parse_cell_name(iv.name, iv.region, iv.offset)) {
      iv.kind = InputVar::Kind::Cell;
      iv.bytes = iv.width / 8;
    } else {
      iv.kind = InputVar::Kind::Scalar;
    }
    inputs.push_back(std::move(iv));
  }
  std::sort(inputs.begin(), inputs.end(),
            [](const InputVar& x, const InputVar& y) {
              return x.name < y.name;
            });

  // --- choose disjoint region bases for the replay ------------------
  // Slab sizes cover every touched offset (loads and stores, both
  // kernels); '@'-prefixed regions are absolute addresses and keep
  // base 0.
  std::map<std::string, std::uint64_t> region_end;
  for (const InputVar& iv : inputs) {
    if (iv.kind == InputVar::Kind::Cell) {
      auto& end = region_end[iv.region];
      end = std::max<std::uint64_t>(end, iv.offset + iv.bytes);
    }
  }
  for (const auto* side : {&sum_a, &sum_b}) {
    for (const ThreadSummary& s : *side) {
      for (const SymPath& p : s.paths) {
        for (const SymWrite& w : p.writes) {
          auto& end = region_end[w.region];
          end = std::max<std::uint64_t>(end, w.offset + w.bytes);
        }
      }
    }
  }
  for (const std::string& p : env.pointer_params) region_end.emplace(p, 0);
  const auto round_up = [](std::uint64_t v) { return (v + 255) & ~255ull; };
  std::map<std::string, std::uint64_t> region_base;
  std::uint64_t cursor = 0x100;
  for (const auto& [region, end] : region_end) {
    if (!region.empty() && region[0] == '@') {
      region_base[region] = 0;
      cursor = std::max<std::uint64_t>(cursor, round_up(end));
    }
  }
  for (const auto& [region, end] : region_end) {
    if (!region.empty() && region[0] == '@') continue;
    region_base[region] = cursor;
    cursor += std::max<std::uint64_t>(round_up(end), 256);
  }
  const std::uint64_t global_bytes = std::max<std::uint64_t>(cursor, 4096);

  // --- candidate values per input -----------------------------------
  const std::uint64_t total = kc.total_threads();
  auto candidates_for = [&](const InputVar& iv) {
    std::vector<std::uint64_t> vals{0, 1, 2, 3};
    if (iv.kind == InputVar::Kind::Scalar) {
      // Guards compare against thread ids: the interesting scalars sit
      // at the partition boundaries.
      for (const std::uint64_t t :
           {total - 1, total, total + 1, 2 * total}) {
        vals.push_back(t);
      }
    } else {
      vals.push_back(255);
    }
    for (std::uint64_t& v : vals) v = truncate(v, iv.width);
    std::sort(vals.begin(), vals.end());
    vals.erase(std::unique(vals.begin(), vals.end()), vals.end());
    return vals;
  };

  // --- replay one candidate valuation through the explorer ----------
  auto replay = [&](const std::unordered_map<std::string, std::uint64_t>&
                        valuation) -> std::optional<Counterexample> {
    ++out.replays;
    sem::LaunchSpec base_spec;
    base_spec.grid = kc.grid;
    base_spec.block = kc.block;
    base_spec.warp_size = kc.warp_size;
    base_spec.global_bytes = global_bytes;
    for (const InputVar& iv : inputs) {
      if (iv.kind != InputVar::Kind::Cell) continue;
      const std::uint64_t v = valuation.at(iv.name);
      const std::uint64_t addr = region_base.at(iv.region) + iv.offset;
      if (iv.bytes == 4) {
        base_spec.inits.emplace_back(addr,
                                     static_cast<std::uint32_t>(v));
      } else if (iv.bytes == 8) {
        base_spec.inits.emplace_back(addr,
                                     static_cast<std::uint32_t>(v));
        base_spec.inits.emplace_back(
            addr + 4, static_cast<std::uint32_t>(v >> 32));
      } else if (v != 0) {
        out.note = "replay unsupported: sub-word initial cell " + iv.name;
        return std::nullopt;
      }
    }
    auto params_for = [&](const ptx::Program& prg) {
      std::vector<std::pair<std::string, std::uint64_t>> params;
      for (const ptx::ParamSlot& slot : prg.params()) {
        const auto base = region_base.find(slot.name);
        if (base != region_base.end() &&
            env.pointer_params.count(slot.name)) {
          params.emplace_back(slot.name, base->second);
        } else if (const auto it = valuation.find(slot.name);
                   it != valuation.end()) {
          params.emplace_back(slot.name, it->second);
        } else {
          params.emplace_back(slot.name, 0);
        }
      }
      return params;
    };
    sched::ExploreOptions eopts;
    eopts.max_states = opts.replay_max_states;
    eopts.max_depth = opts.replay_max_depth;
    auto run = [&](const ptx::Program& prg)
        -> std::optional<sem::Machine> {
      sem::LaunchSpec spec = base_spec;
      spec.params = params_for(prg);
      const sem::Launch launch = spec.to_launch(prg);
      const sched::ExploreResult ex =
          explorer ? explorer(prg, kc, launch.machine(), eopts)
                   : sched::explore(prg, kc, launch.machine(), eopts);
      if (!ex.exhaustive || !ex.violations.empty() ||
          ex.final_ids.size() != 1) {
        return std::nullopt;
      }
      return ex.store->materialize(ex.final_ids.front());
    };
    const auto fa = run(a);
    const auto fb = run(b);
    if (!fa || !fb) {
      out.note = "replay failed: exploration not exhaustive or not "
                 "schedule-independent";
      return std::nullopt;
    }
    const std::uint64_t words = global_bytes / 4;
    for (std::uint64_t i = 0; i < words; ++i) {
      const std::uint64_t addr = 4 * i;
      const std::uint64_t va = fa->memory.load(mem::Space::Global, addr, 4);
      const std::uint64_t vb = fb->memory.load(mem::Space::Global, addr, 4);
      if (va == vb) continue;
      Counterexample cex;
      cex.addr = addr;
      cex.value_a = static_cast<std::uint32_t>(va);
      cex.value_b = static_cast<std::uint32_t>(vb);
      cex.region = "@global";
      cex.offset = addr;
      for (const auto& [region, base] : region_base) {
        const std::uint64_t end = base + region_end.at(region);
        if (addr >= base && addr < std::max(end, base + 1)) {
          cex.region = region;
          cex.offset = addr - base;
        }
      }
      for (const InputVar& iv : inputs) {
        if (iv.kind == InputVar::Kind::Pointer) {
          cex.inputs.emplace_back(iv.name, region_base.at(iv.name));
        } else {
          cex.inputs.emplace_back(iv.name, valuation.at(iv.name));
        }
      }
      cex.replay_validated = true;
      return cex;
    }
    return std::nullopt;  // symbolic pre-filter false alarm
  };

  // --- enumerate valuations -----------------------------------------
  auto base_valuation = [&]() {
    std::unordered_map<std::string, std::uint64_t> val;
    for (const InputVar& iv : inputs) {
      val[iv.name] =
          iv.kind == InputVar::Kind::Pointer ? region_base.at(iv.name) : 0;
    }
    return val;
  };
  auto try_valuation =
      [&](const std::unordered_map<std::string, std::uint64_t>& val)
      -> std::optional<Counterexample> {
    ++out.trials;
    const auto ia = eval_side(arena, sum_a, val);
    const auto ib = eval_side(arena, sum_b, val);
    if (!ia || !ib) return std::nullopt;  // intra-kernel write conflict
    if (*ia == *ib) return std::nullopt;
    return replay(val);
  };

  // Pass 1: all-defaults.  Pass 2: vary one input at a time.  Pass 3:
  // deterministic pseudo-random combinations until the budget runs out.
  {
    const auto val = base_valuation();
    if (auto cex = try_valuation(val)) {
      out.found = std::move(cex);
      return out;
    }
  }
  for (const InputVar& iv : inputs) {
    if (iv.kind == InputVar::Kind::Pointer) continue;
    for (const std::uint64_t v : candidates_for(iv)) {
      if (v == 0) continue;
      if (out.trials >= opts.max_trials) {
        out.budget_exhausted = true;
        return out;
      }
      auto val = base_valuation();
      val[iv.name] = v;
      if (auto cex = try_valuation(val)) {
        out.found = std::move(cex);
        return out;
      }
    }
  }
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  while (out.trials < opts.max_trials) {
    auto val = base_valuation();
    for (const InputVar& iv : inputs) {
      if (iv.kind == InputVar::Kind::Pointer) continue;
      const auto cands = candidates_for(iv);
      val[iv.name] = cands[xorshift64(rng) % cands.size()];
    }
    if (auto cex = try_valuation(val)) {
      out.found = std::move(cex);
      return out;
    }
  }
  out.budget_exhausted = true;
  return out;
}

}  // namespace cac::equiv
