#include "analysis/affine.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <map>

#include "ptx/cfg.h"
#include "ptx/defuse.h"

namespace cac::analysis {

namespace {

bool add_ck(std::int64_t a, std::int64_t b, std::int64_t& out) {
  return !__builtin_add_overflow(a, b, &out);
}

bool mul_ck(std::int64_t a, std::int64_t b, std::int64_t& out) {
  return !__builtin_mul_overflow(a, b, &out);
}

}  // namespace

std::string to_string(const Sym& s) {
  static const char* kDim = "xyz";
  switch (s.kind) {
    case Sym::Kind::Tid: return std::string("tid.") + kDim[s.dim];
    case Sym::Kind::CtaId: return std::string("ctaid.") + kDim[s.dim];
    case Sym::Kind::NTid: return std::string("ntid.") + kDim[s.dim];
    case Sym::Kind::NCtaId: return std::string("nctaid.") + kDim[s.dim];
    case Sym::Kind::GidBase:
      return std::string("ctaid.") + kDim[s.dim] + "*ntid." + kDim[s.dim];
    case Sym::Kind::Param:
      return "param[" + std::to_string(s.param_offset) + "]";
  }
  return "?";
}

AffineExpr AffineExpr::constant(std::int64_t c) {
  AffineExpr e;
  e.top_ = false;
  e.c_ = c;
  return e;
}

AffineExpr AffineExpr::symbol(const Sym& s) {
  AffineExpr e;
  e.top_ = false;
  e.terms_.push_back(Term{s, 1});
  return e;
}

AffineExpr AffineExpr::add(const AffineExpr& o) const {
  if (top_ || o.top_) return top();
  // Modulo components add only when one side has none, or both carry
  // the *same* component (the scales sum).
  AffineExpr r;
  r.top_ = false;
  if (has_mod() && o.has_mod()) {
    if (modulus_ != o.modulus_ || mod_c_ != o.mod_c_ ||
        mod_terms_ != o.mod_terms_) {
      return top();
    }
    r.modulus_ = modulus_;
    r.mod_c_ = mod_c_;
    r.mod_terms_ = mod_terms_;
    if (!add_ck(mod_scale_, o.mod_scale_, r.mod_scale_)) return top();
  } else if (has_mod() || o.has_mod()) {
    const AffineExpr& m = has_mod() ? *this : o;
    r.modulus_ = m.modulus_;
    r.mod_scale_ = m.mod_scale_;
    r.mod_c_ = m.mod_c_;
    r.mod_terms_ = m.mod_terms_;
  }
  if (r.mod_scale_ == 0) {
    r.modulus_ = 0;
    r.mod_c_ = 0;
    r.mod_terms_.clear();
  }
  if (!add_ck(c_, o.c_, r.c_)) return top();
  // Merge the two sorted term lists.
  std::size_t i = 0, j = 0;
  while (i < terms_.size() || j < o.terms_.size()) {
    if (j == o.terms_.size() ||
        (i < terms_.size() &&
         terms_[i].sym.key() < o.terms_[j].sym.key())) {
      r.terms_.push_back(terms_[i++]);
    } else if (i == terms_.size() ||
               terms_[i].sym.key() > o.terms_[j].sym.key()) {
      r.terms_.push_back(o.terms_[j++]);
    } else {
      std::int64_t k = 0;
      if (!add_ck(terms_[i].coeff, o.terms_[j].coeff, k)) return top();
      if (k != 0) r.terms_.push_back(Term{terms_[i].sym, k});
      ++i;
      ++j;
    }
  }
  return r;
}

AffineExpr AffineExpr::scaled(std::int64_t k) const {
  if (top_) return top();
  if (k == 0) return constant(0);
  AffineExpr r;
  r.top_ = false;
  if (!mul_ck(c_, k, r.c_)) return top();
  r.terms_.reserve(terms_.size());
  for (const Term& t : terms_) {
    std::int64_t c = 0;
    if (!mul_ck(t.coeff, k, c)) return top();
    r.terms_.push_back(Term{t.sym, c});
  }
  if (has_mod()) {
    r.modulus_ = modulus_;
    r.mod_c_ = mod_c_;
    r.mod_terms_ = mod_terms_;
    if (!mul_ck(mod_scale_, k, r.mod_scale_)) return top();
  }
  return r;
}

AffineExpr AffineExpr::sub(const AffineExpr& o) const {
  return add(o.scaled(-1));
}

AffineExpr AffineExpr::mul(const AffineExpr& o) const {
  if (top_ || o.top_) return top();
  if (is_const()) return o.scaled(c_);
  if (o.is_const()) return scaled(o.c_);
  if (has_mod() || o.has_mod()) return top();
  // The one non-linear idiom kept affine: ctaid.d * ntid.d (in either
  // order, with constant factors) becomes the composite GidBase{d}.
  auto single = [](const AffineExpr& e, Sym::Kind k) -> const Term* {
    if (e.c_ != 0 || e.terms_.size() != 1) return nullptr;
    return e.terms_[0].sym.kind == k ? &e.terms_[0] : nullptr;
  };
  const Term* cta = single(*this, Sym::Kind::CtaId);
  const Term* nt = single(o, Sym::Kind::NTid);
  if (cta == nullptr) {
    cta = single(o, Sym::Kind::CtaId);
    nt = single(*this, Sym::Kind::NTid);
  }
  if (cta != nullptr && nt != nullptr && cta->sym.dim == nt->sym.dim) {
    std::int64_t k = 0;
    if (!mul_ck(cta->coeff, nt->coeff, k)) return top();
    return AffineExpr::symbol(
               Sym{Sym::Kind::GidBase, cta->sym.dim, 0})
        .scaled(k);
  }
  return top();
}

bool AffineExpr::provably_nonneg() const {
  if (top_ || c_ < 0) return false;
  for (const Term& t : terms_) {
    // Every symbol evaluates to >= 0 except an unvalued Param, whose
    // sign is unknown in either direction.
    if (t.coeff < 0 || t.sym.kind == Sym::Kind::Param) return false;
  }
  // The modulo component's value lies in [0, modulus); its sign is the
  // scale's.
  return mod_scale_ >= 0;
}

AffineExpr AffineExpr::rem(std::int64_t m) const {
  if (top_ || m <= 0) return top();
  if (is_const()) {
    // PTX truncated remainder; exact for constants of either sign.
    return constant(c_ % m);
  }
  if (m == 1) return provably_nonneg() ? constant(0) : top();
  if (has_mod()) {
    // Nested mod folds only in the re-mask idiom x mod km mod m, with
    // no affine part and unit scale.
    if (c_ == 0 && terms_.empty() && mod_scale_ == 1 &&
        modulus_ % m == 0) {
      AffineExpr inner;
      inner.top_ = false;
      inner.c_ = mod_c_;
      inner.terms_ = mod_terms_;
      return inner.rem(m);
    }
    return top();
  }
  if (!provably_nonneg()) return top();
  // (c + Σ k·s) mod m == ((c mod m) + Σ (k mod m)·s) mod m; reducing
  // the coefficients into [0, m) is canonical and keeps the reduced
  // inner expression nonnegative too.
  AffineExpr r;
  r.top_ = false;
  r.modulus_ = m;
  r.mod_scale_ = 1;
  r.mod_c_ = c_ % m;
  for (const Term& t : terms_) {
    const std::int64_t k = t.coeff % m;
    if (k != 0) r.mod_terms_.push_back(Term{t.sym, k});
  }
  if (r.mod_terms_.empty()) return constant(r.mod_c_);
  return r;
}

std::string AffineExpr::str() const {
  if (top_) return "⊤";
  std::string out = std::to_string(c_);
  for (const Term& t : terms_) {
    out += (t.coeff >= 0 ? " + " : " - ") +
           std::to_string(t.coeff >= 0 ? t.coeff : -t.coeff) + "*" +
           to_string(t.sym);
  }
  if (has_mod()) {
    out += (mod_scale_ >= 0 ? " + " : " - ") +
           std::to_string(mod_scale_ >= 0 ? mod_scale_ : -mod_scale_) +
           "*((" + std::to_string(mod_c_);
    for (const Term& t : mod_terms_) {
      out += (t.coeff >= 0 ? " + " : " - ") +
             std::to_string(t.coeff >= 0 ? t.coeff : -t.coeff) + "*" +
             to_string(t.sym);
    }
    out += ") mod " + std::to_string(modulus_) + ")";
  }
  return out;
}

Guard negate(const Guard& g) {
  ptx::CmpOp c = ptx::CmpOp::Eq;
  switch (g.cmp) {
    case ptx::CmpOp::Eq: c = ptx::CmpOp::Ne; break;
    case ptx::CmpOp::Ne: c = ptx::CmpOp::Eq; break;
    case ptx::CmpOp::Lt: c = ptx::CmpOp::Ge; break;
    case ptx::CmpOp::Ge: c = ptx::CmpOp::Lt; break;
    case ptx::CmpOp::Le: c = ptx::CmpOp::Gt; break;
    case ptx::CmpOp::Gt: c = ptx::CmpOp::Le; break;
  }
  return Guard{g.expr, c};
}

std::optional<std::pair<std::int64_t, std::int64_t>> sym_range(
    const Sym& s, const LaunchEnv& env) {
  if (!env.known) return std::nullopt;
  switch (s.kind) {
    case Sym::Kind::Tid:
      return std::make_pair<std::int64_t, std::int64_t>(
          0, static_cast<std::int64_t>(env.ntid[s.dim]) - 1);
    case Sym::Kind::CtaId:
      return std::make_pair<std::int64_t, std::int64_t>(
          0, static_cast<std::int64_t>(env.nctaid[s.dim]) - 1);
    default:
      // NTid/NCtaId/valued params fold to constants under a known
      // launch and GidBase is rewritten away; what remains (unvalued
      // Param) has no finite range.
      return std::nullopt;
  }
}

namespace {

std::int64_t floor_div(std::int64_t a, std::int64_t b) {
  std::int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) != (b < 0))) --q;
  return q;
}

std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  std::int64_t q = a / b;
  if ((a % b != 0) && ((a < 0) == (b < 0))) ++q;
  return q;
}

/// Half-open knowledge about one symbol's value: either bound may be
/// unknown (nullopt).
struct SymBounds {
  std::optional<std::int64_t> lo;
  std::optional<std::int64_t> hi;
};

SymBounds base_bounds(const Sym& s, const LaunchEnv& env) {
  SymBounds b;
  // Every launch symbol is intrinsically nonnegative; an unvalued
  // Param is a raw kernel argument of unknown sign.
  if (s.kind != Sym::Kind::Param) b.lo = 0;
  if (const auto r = sym_range(s, env)) {
    b.lo = r->first;
    b.hi = r->second;
  }
  return b;
}

/// Apply one guard to one symbol's bounds.  Only single-symbol affine
/// guards `k·s + c cmp 0` constrain anything.
void tighten(SymBounds& b, const Sym& s, const Guard& g) {
  if (g.expr.is_top() || g.expr.has_mod() || g.expr.terms().size() != 1) {
    return;
  }
  const Term& t = g.expr.terms()[0];
  if (!(t.sym == s) || t.coeff == 0) return;
  const std::int64_t k = t.coeff;
  const std::int64_t c = g.expr.constant_term();
  // k·s + c cmp 0  ->  upper/lower bounds on s.
  auto upper = [&](std::int64_t rhs) {  // k·s <= rhs
    const std::int64_t bound = k > 0 ? floor_div(rhs, k) : ceil_div(rhs, k);
    if (k > 0) {
      if (!b.hi || bound < *b.hi) b.hi = bound;
    } else {
      if (!b.lo || bound > *b.lo) b.lo = bound;
    }
  };
  auto lower = [&](std::int64_t rhs) {  // k·s >= rhs
    const std::int64_t bound = k > 0 ? ceil_div(rhs, k) : floor_div(rhs, k);
    if (k > 0) {
      if (!b.lo || bound > *b.lo) b.lo = bound;
    } else {
      if (!b.hi || bound < *b.hi) b.hi = bound;
    }
  };
  switch (g.cmp) {
    case ptx::CmpOp::Le: upper(-c); break;
    case ptx::CmpOp::Lt: upper(-c - 1); break;
    case ptx::CmpOp::Ge: lower(-c); break;
    case ptx::CmpOp::Gt: lower(-c + 1); break;
    case ptx::CmpOp::Eq:
      upper(-c);
      lower(-c);
      break;
    case ptx::CmpOp::Ne: break;  // no interval information
  }
}

}  // namespace

std::optional<std::pair<std::int64_t, std::int64_t>> expr_range(
    const AffineExpr& e, const LaunchEnv& env,
    const std::vector<Guard>& guards) {
  if (e.is_top()) return std::nullopt;
  std::int64_t lo = e.constant_term(), hi = lo;
  for (const Term& t : e.terms()) {
    SymBounds b = base_bounds(t.sym, env);
    for (const Guard& g : guards) tighten(b, t.sym, g);
    if (!b.lo || !b.hi || *b.lo > *b.hi) return std::nullopt;
    std::int64_t a = 0, c = 0;
    if (!mul_ck(t.coeff, *b.lo, a) || !mul_ck(t.coeff, *b.hi, c)) {
      return std::nullopt;
    }
    if (!add_ck(lo, std::min(a, c), lo) || !add_ck(hi, std::max(a, c), hi)) {
      return std::nullopt;
    }
  }
  if (e.has_mod()) {
    // The component's value spans [0, modulus-1]; scaled.
    std::int64_t a = 0;
    if (!mul_ck(e.mod_scale(), e.modulus() - 1, a)) return std::nullopt;
    if (!add_ck(lo, std::min<std::int64_t>(a, 0), lo) ||
        !add_ck(hi, std::max<std::int64_t>(a, 0), hi)) {
      return std::nullopt;
    }
  }
  return std::make_pair(lo, hi);
}

namespace {

using ptx::Instr;
using ptx::Operand;
using ptx::Reg;
using ptx::Space;
using ptx::Sreg;
using ptx::SregKind;

/// Abstract register file: Reg::key() -> expression.  An absent key
/// is ⊤.  std::map keeps join and equality deterministic.
using Env = std::map<std::uint32_t, AffineExpr>;

/// What a predicate register is known to test: pred ⇔ (diff cmp 0)
/// with diff = a - b of the defining setp.
struct PredFact {
  AffineExpr diff;
  ptx::CmpOp cmp = ptx::CmpOp::Eq;
  friend bool operator==(const PredFact&, const PredFact&) = default;
};

using PredEnv = std::map<std::uint32_t, PredFact>;

/// Joined per-block abstract state: register expressions, predicate
/// facts, and the path guards established by every branch on every
/// path into the block.
struct AbsState {
  Env regs;
  PredEnv preds;
  std::vector<Guard> facts;
  friend bool operator==(const AbsState&, const AbsState&) = default;
};

constexpr std::size_t kMaxFacts = 16;  // per-point guard cap

void add_fact(std::vector<Guard>& facts, const Guard& g) {
  if (facts.size() >= kMaxFacts) return;
  if (std::find(facts.begin(), facts.end(), g) == facts.end()) {
    facts.push_back(g);
  }
}

AffineExpr sreg_expr(const Sreg& s, const LaunchEnv& env) {
  const auto d = static_cast<std::uint8_t>(s.dim);
  switch (s.kind) {
    case SregKind::Tid:
      return AffineExpr::symbol(Sym{Sym::Kind::Tid, d, 0});
    case SregKind::CtaId:
      return AffineExpr::symbol(Sym{Sym::Kind::CtaId, d, 0});
    case SregKind::NTid:
      return env.known ? AffineExpr::constant(env.ntid[d])
                       : AffineExpr::symbol(Sym{Sym::Kind::NTid, d, 0});
    case SregKind::NCtaId:
      return env.known ? AffineExpr::constant(env.nctaid[d])
                       : AffineExpr::symbol(Sym{Sym::Kind::NCtaId, d, 0});
  }
  return AffineExpr::top();
}

AffineExpr eval_operand(const Operand& op, const Env& env,
                        const LaunchEnv& launch) {
  struct V {
    const Env& env;
    const LaunchEnv& launch;
    AffineExpr operator()(const Reg& r) const {
      const auto it = env.find(r.key());
      return it == env.end() ? AffineExpr::top() : it->second;
    }
    AffineExpr operator()(const Sreg& s) const {
      return sreg_expr(s, launch);
    }
    AffineExpr operator()(const ptx::Imm& i) const {
      return AffineExpr::constant(i.value);
    }
    AffineExpr operator()(const ptx::RegImm& ri) const {
      return (*this)(ri.reg).add(AffineExpr::constant(ri.offset));
    }
  };
  return std::visit(V{env, launch}, op);
}

void set_reg(Env& env, const Reg& r, AffineExpr e) {
  // A 32-bit register cannot hold a constant outside its width; such
  // an assignment would wrap, which the domain does not model.
  if (!e.is_top() && e.is_const() && r.width < 64) {
    const std::int64_t hi = std::int64_t{1} << r.width;
    if (e.constant_term() < 0 || e.constant_term() >= hi) {
      e = AffineExpr::top();
    }
  }
  if (e.is_top()) env.erase(r.key());
  else env[r.key()] = std::move(e);
}

/// Transfer one instruction; appends access sites when `state.facts`
/// is consumed by a non-null `out` (the recording pass after the
/// fixpoint).
void transfer(const Instr& instr, std::uint32_t pc, AbsState& st,
              const LaunchEnv& launch, ProgramFacts* out) {
  Env& env = st.regs;
  auto ev = [&](const Operand& op) { return eval_operand(op, env, launch); };
  auto record = [&](Space space, bool write, bool atomic, unsigned width,
                    const Operand& addr) {
    if (out == nullptr) return;
    if (space != Space::Global && space != Space::Shared) return;
    out->sites.push_back(
        AccessSite{pc, space, write, atomic, width, ev(addr), st.facts});
  };

  if (const auto* i = std::get_if<ptx::IBop>(&instr)) {
    AffineExpr r = AffineExpr::top();
    switch (i->op) {
      case ptx::BinOp::Add: r = ev(i->a).add(ev(i->b)); break;
      case ptx::BinOp::Sub: r = ev(i->a).sub(ev(i->b)); break;
      case ptx::BinOp::Mul:
      case ptx::BinOp::MulWide: r = ev(i->a).mul(ev(i->b)); break;
      case ptx::BinOp::Shl: {
        const AffineExpr b = ev(i->b);
        if (b.is_const() && b.constant_term() >= 0 &&
            b.constant_term() < 63) {
          r = ev(i->a).scaled(std::int64_t{1} << b.constant_term());
        }
        break;
      }
      case ptx::BinOp::Rem: {
        // The modulo component: x % m for a constant m > 0.
        const AffineExpr b = ev(i->b);
        if (b.is_const() && b.constant_term() > 0) {
          r = ev(i->a).rem(b.constant_term());
        }
        break;
      }
      case ptx::BinOp::And: {
        // A power-of-two mask is the same modulo: x & (2^k - 1).
        const AffineExpr b = ev(i->b);
        if (b.is_const() && b.constant_term() >= 0) {
          const std::uint64_t m =
              static_cast<std::uint64_t>(b.constant_term()) + 1;
          if (m != 0 && (m & (m - 1)) == 0) {
            r = ev(i->a).rem(static_cast<std::int64_t>(m));
          }
        }
        break;
      }
      default: break;  // MulHi/Div/Min/Max/Or/Xor/Shr -> ⊤
    }
    set_reg(env, i->dst, std::move(r));
  } else if (const auto* i = std::get_if<ptx::ISetp>(&instr)) {
    const AffineExpr diff = ev(i->a).sub(ev(i->b));
    if (diff.is_top()) {
      st.preds.erase(i->dst.index);
    } else {
      st.preds[i->dst.index] = PredFact{diff, i->cmp};
    }
  } else if (const auto* i = std::get_if<ptx::IVote>(&instr)) {
    if (i->mode == ptx::VoteMode::Ballot) {
      set_reg(env, i->dst_ballot, AffineExpr::top());
    } else {
      st.preds.erase(i->dst.index);
    }
  } else if (const auto* i = std::get_if<ptx::ITop>(&instr)) {
    // MadLo/MadWide: a*b + c.
    set_reg(env, i->dst, ev(i->a).mul(ev(i->b)).add(ev(i->c)));
  } else if (const auto* i = std::get_if<ptx::IUop>(&instr)) {
    if (i->op == ptx::UnOp::Cvt && i->type.width <= i->dst.width) {
      // Widening (or same-width) conversion preserves the value.
      set_reg(env, i->dst, ev(i->a));
    } else if (i->op == ptx::UnOp::Neg) {
      set_reg(env, i->dst, AffineExpr::constant(0).sub(ev(i->a)));
    } else {
      set_reg(env, i->dst, AffineExpr::top());
    }
  } else if (const auto* i = std::get_if<ptx::IMov>(&instr)) {
    set_reg(env, i->dst, ev(i->src));
  } else if (const auto* i = std::get_if<ptx::ILd>(&instr)) {
    record(i->space, false, false, i->type.bytes(), i->addr);
    AffineExpr v = AffineExpr::top();
    if (i->space == Space::Param) {
      const AffineExpr a = ev(i->addr);
      if (a.is_const()) {
        const auto off = static_cast<std::uint32_t>(a.constant_term());
        const auto it = launch.params.find(off);
        if (it != launch.params.end() &&
            it->second <= static_cast<std::uint64_t>(
                              std::numeric_limits<std::int64_t>::max())) {
          v = AffineExpr::constant(static_cast<std::int64_t>(it->second));
        } else if (it == launch.params.end()) {
          v = AffineExpr::symbol(Sym{Sym::Kind::Param, 0, off});
        }
      }
    }
    set_reg(env, i->dst, std::move(v));
  } else if (const auto* i = std::get_if<ptx::ISt>(&instr)) {
    record(i->space, true, false, i->type.bytes(), i->addr);
  } else if (const auto* i = std::get_if<ptx::IAtom>(&instr)) {
    record(i->space, true, true, i->type.bytes(), i->addr);
    set_reg(env, i->dst, AffineExpr::top());
  } else if (const auto* i = std::get_if<ptx::ISelp>(&instr)) {
    // selp folds only when both arms agree.
    const AffineExpr a = ev(i->a);
    set_reg(env, i->dst, a == ev(i->b) ? a : AffineExpr::top());
  } else if (const auto* i = std::get_if<ptx::IShfl>(&instr)) {
    set_reg(env, i->dst, AffineExpr::top());
  }
  // Nop/Bra/PBra/Sync/Bar/Exit: no register or predicate effect.
}

/// Pointwise join: keep entries present and equal in both (anything
/// else is ⊤, i.e. absent); guard facts intersect.  Every component
/// only ever shrinks, so the fixpoint terminates.
AbsState join(const AbsState& a, const AbsState& b) {
  AbsState out;
  for (const auto& [k, e] : a.regs) {
    const auto it = b.regs.find(k);
    if (it != b.regs.end() && it->second == e) out.regs.emplace(k, e);
  }
  for (const auto& [k, f] : a.preds) {
    const auto it = b.preds.find(k);
    if (it != b.preds.end() && it->second == f) out.preds.emplace(k, f);
  }
  for (const Guard& g : a.facts) {
    if (std::find(b.facts.begin(), b.facts.end(), g) != b.facts.end()) {
      out.facts.push_back(g);
    }
  }
  return out;
}

/// The guard established on the edge from a block ending in the
/// predicated branch `pbra` toward successor block `succ` (taken edge
/// gets the branch polarity, the fallthrough its negation), when the
/// predicate has a tracked comparison.
std::optional<Guard> edge_fact(const ptx::IPBra& pbra, std::uint32_t pbra_pc,
                               std::uint32_t succ, const ptx::Cfg& cfg,
                               const PredEnv& preds) {
  const auto it = preds.find(pbra.pred.index);
  if (it == preds.end()) return std::nullopt;
  Guard taken{it->second.diff, it->second.cmp};
  if (pbra.negated) taken = negate(taken);
  const std::uint32_t taken_block = cfg.block_of(pbra.target);
  const std::uint32_t fall_block =
      pbra_pc + 1 < cfg.blocks().back().last ? cfg.block_of(pbra_pc + 1)
                                             : cfg.exit_id();
  if (taken_block == fall_block) return std::nullopt;  // no information
  if (succ == taken_block) return taken;
  if (succ == fall_block) return negate(taken);
  return std::nullopt;
}

ProgramFacts analyze_over(const ptx::Program& prg, const ptx::Cfg& cfg,
                          const LaunchEnv& env) {
  ProgramFacts out;
  const auto& blocks = cfg.blocks();

  // Forward fixpoint on block-entry states.  The join only ever
  // removes entries once a block has been reached, so it terminates.
  std::vector<std::optional<AbsState>> in(blocks.size());
  std::deque<std::uint32_t> work;
  in[0] = AbsState{};
  work.push_back(0);
  while (!work.empty()) {
    const std::uint32_t b = work.front();
    work.pop_front();
    AbsState st = *in[b];
    for (std::uint32_t pc = blocks[b].first; pc < blocks[b].last; ++pc) {
      transfer(prg.code()[pc], pc, st, env, nullptr);
    }
    const std::uint32_t last_pc = blocks[b].last - 1;
    const auto* pbra = std::get_if<ptx::IPBra>(&prg.code()[last_pc]);
    for (const std::uint32_t s : blocks[b].succs) {
      if (s == cfg.exit_id()) continue;
      AbsState flowed = st;
      if (pbra != nullptr) {
        if (const auto g = edge_fact(*pbra, last_pc, s, cfg, st.preds)) {
          add_fact(flowed.facts, *g);
        }
      }
      AbsState next =
          in[s].has_value() ? join(*in[s], flowed) : std::move(flowed);
      if (!in[s].has_value() || next != *in[s]) {
        in[s] = std::move(next);
        if (std::find(work.begin(), work.end(), s) == work.end()) {
          work.push_back(s);
        }
      }
    }
  }

  // Recording pass over every reached block: access sites (with their
  // path facts) and branch-edge facts.
  for (std::uint32_t b = 0; b < blocks.size(); ++b) {
    if (!in[b].has_value()) continue;  // unreachable
    AbsState st = *in[b];
    for (std::uint32_t pc = blocks[b].first; pc < blocks[b].last; ++pc) {
      transfer(prg.code()[pc], pc, st, env, &out);
    }
    const std::uint32_t last_pc = blocks[b].last - 1;
    if (const auto* pbra = std::get_if<ptx::IPBra>(&prg.code()[last_pc])) {
      const auto it = st.preds.find(pbra->pred.index);
      if (it != st.preds.end()) {
        Guard taken{it->second.diff, it->second.cmp};
        if (pbra->negated) taken = negate(taken);
        out.taken_facts.emplace(last_pc, std::move(taken));
      }
    }
  }
  std::sort(out.sites.begin(), out.sites.end(),
            [](const AccessSite& a, const AccessSite& b) {
              return a.pc < b.pc;
            });
  return out;
}

}  // namespace

ProgramFacts analyze_program(const ptx::Program& prg, const LaunchEnv& env) {
  if (prg.empty()) return {};
  return analyze_over(prg, ptx::Cfg(prg.code()), env);
}

KernelAnalysis::KernelAnalysis(const ptx::Program& prg,
                               const LaunchEnv& launch)
    : env(launch),
      cfg(prg.code()),
      ipostdom(cfg.ipostdom()),
      divergent(ptx::divergent_pbras(prg.code())),
      facts(analyze_over(prg, cfg, env)) {}

std::vector<std::uint32_t> KernelAnalysis::divergent_region(
    std::uint32_t branch_pc) const {
  const std::uint32_t branch_block = cfg.block_of(branch_pc);
  const std::uint32_t join = ipostdom[branch_block];
  std::vector<bool> seen(cfg.blocks().size(), false);
  std::vector<std::uint32_t> region;  // also the BFS queue
  auto visit_succs = [&](std::uint32_t b) {
    for (const std::uint32_t s : cfg.blocks()[b].succs) {
      if (s != join && s != cfg.exit_id() && !seen[s]) {
        seen[s] = true;
        region.push_back(s);
      }
    }
  };
  visit_succs(branch_block);
  for (std::size_t i = 0; i < region.size(); ++i) visit_succs(region[i]);
  return region;
}

std::vector<AccessSite> analyze_addresses(const ptx::Program& prg,
                                          const LaunchEnv& env) {
  return analyze_program(prg, env).sites;
}

}  // namespace cac::analysis
