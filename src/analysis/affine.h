// Affine access analysis — the abstract interpreter half of the static
// analyzer (docs/analysis.md).
//
// Register values are tracked in a constant × symbol domain: an
// abstract value is either ⊤ (unknown) or an affine expression
//
//     c + Σ k_i · s_i
//
// over the launch symbols tid/ctaid/ntid/nctaid (per dimension), the
// composite gid base ctaid.d·ntid.d (so `mad.lo gid, ctaid, ntid, tid`
// stays affine), and unvalued kernel parameters.  A forward dataflow
// fixpoint over the CFG joins environments at block entries (equal
// expressions survive, anything else goes to ⊤ — loop counters
// therefore land on ⊤), then every Shared/Global memory access site is
// recorded with its address expression.  The classification of site
// pairs lives in analysis/disjoint.h.
//
// Soundness note: expressions are exact integer arithmetic; the
// analysis assumes address computations do not wrap at the register
// width (see docs/analysis.md for the guards consumers apply).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "ptx/cfg.h"
#include "ptx/program.h"

namespace cac::analysis {

/// A symbol of the affine domain.
struct Sym {
  enum class Kind : std::uint8_t {
    Tid = 0,      // %tid.<dim>: varies per thread within a block
    CtaId = 1,    // %ctaid.<dim>: varies per block
    NTid = 2,     // %ntid.<dim>: launch constant
    NCtaId = 3,   // %nctaid.<dim>: launch constant
    GidBase = 4,  // ctaid.<dim> * ntid.<dim> (the mad.lo gid idiom)
    Param = 5,    // unvalued kernel argument at this Param-space offset
  };
  Kind kind = Kind::Tid;
  std::uint8_t dim = 0;            // 0..2; unused for Param
  std::uint32_t param_offset = 0;  // Param only

  [[nodiscard]] std::uint64_t key() const {
    return (static_cast<std::uint64_t>(kind) << 40) |
           (static_cast<std::uint64_t>(dim) << 32) | param_offset;
  }
  friend bool operator==(const Sym&, const Sym&) = default;
};

std::string to_string(const Sym& s);

/// One `k · s` term; expressions keep terms sorted by symbol key with
/// nonzero coefficients only, so structural equality is semantic
/// equality.
struct Term {
  Sym sym;
  std::int64_t coeff = 0;
  friend bool operator==(const Term&, const Term&) = default;
};

/// ⊤ or an affine expression with an optional modulo component:
///
///     c + Σ k_i · s_i  +  q · ((m_c + Σ m_j · s_j) mod m)
///
/// The modulo component (modulus() == 0 when absent) is what `rem` and
/// power-of-two `and`-masks produce; it keeps strided/cyclic index
/// idioms (`tid % pitch`, `tid & 31`) out of ⊤ so the perf passes can
/// model them per lane.  It is only ever built from a provably
/// nonnegative inner expression, so the PTX truncated remainder
/// coincides with the mathematical mod and the component's value lies
/// in [0, m).  All arithmetic is overflow-checked; any operation that
/// would overflow int64 yields ⊤.
class AffineExpr {
 public:
  AffineExpr() = default;  // ⊤

  static AffineExpr top() { return AffineExpr{}; }
  static AffineExpr constant(std::int64_t c);
  static AffineExpr symbol(const Sym& s);

  [[nodiscard]] bool is_top() const { return top_; }
  [[nodiscard]] bool is_const() const {
    return !top_ && terms_.empty() && modulus_ == 0;
  }
  [[nodiscard]] std::int64_t constant_term() const { return c_; }
  [[nodiscard]] const std::vector<Term>& terms() const { return terms_; }

  /// Modulo component accessors; modulus() == 0 means "no component".
  [[nodiscard]] bool has_mod() const { return modulus_ != 0; }
  [[nodiscard]] std::int64_t modulus() const { return modulus_; }
  [[nodiscard]] std::int64_t mod_scale() const { return mod_scale_; }
  [[nodiscard]] std::int64_t mod_constant() const { return mod_c_; }
  [[nodiscard]] const std::vector<Term>& mod_terms() const {
    return mod_terms_;
  }

  [[nodiscard]] AffineExpr add(const AffineExpr& o) const;
  [[nodiscard]] AffineExpr sub(const AffineExpr& o) const;
  /// Multiplication: constant folding, scaling, and the single
  /// non-linear special case `ctaid.d * ntid.d` -> GidBase{d}.
  [[nodiscard]] AffineExpr mul(const AffineExpr& o) const;
  [[nodiscard]] AffineExpr scaled(std::int64_t k) const;
  /// `*this mod m` (m a constant > 1): exact when the value is
  /// provably nonnegative, with coefficients canonicalized into
  /// [0, m) so e.g. (34·tid) mod 32 == (2·tid) mod 32 structurally.
  /// ⊤ when nonnegativity cannot be shown or a modulo component is
  /// already present (no nesting).
  [[nodiscard]] AffineExpr rem(std::int64_t m) const;

  /// Every symbol is nonnegative except an unvalued Param; true when
  /// the constant and all coefficients (affine and modulo) are >= 0 and
  /// no Param term appears with the wrong sign potential.
  [[nodiscard]] bool provably_nonneg() const;

  friend bool operator==(const AffineExpr&, const AffineExpr&) = default;

  [[nodiscard]] std::string str() const;

 private:
  bool top_ = true;
  std::int64_t c_ = 0;
  std::vector<Term> terms_;
  std::int64_t modulus_ = 0;    // 0: no modulo component
  std::int64_t mod_scale_ = 0;  // q
  std::int64_t mod_c_ = 0;      // m_c, in [0, modulus)
  std::vector<Term> mod_terms_;  // coefficients in [0, modulus)
};

/// Launch specialization.  When `known`, ntid/nctaid evaluate to
/// constants, valued parameters fold to constants, and symbol ranges
/// become finite — turning may-conflict residue into exact verdicts.
struct LaunchEnv {
  bool known = false;
  std::uint32_t ntid[3] = {1, 1, 1};
  std::uint32_t nctaid[3] = {1, 1, 1};
  /// Param-slot byte offset -> concrete argument value (masked to the
  /// slot width by the caller).  Parameters absent here stay symbolic.
  std::unordered_map<std::uint32_t, std::uint64_t> params;
};

/// A path fact `expr cmp 0` that holds on every execution reaching the
/// program point carrying it — harvested from setp + predicated-branch
/// edges (`if (tid < n)` narrows the domain on the taken edge) and
/// intersected at joins.
struct Guard {
  AffineExpr expr;  // lhs - rhs of the originating setp
  ptx::CmpOp cmp = ptx::CmpOp::Eq;
  friend bool operator==(const Guard&, const Guard&) = default;
};

/// The guard that holds when `g` does NOT (Eq<->Ne, Lt<->Ge, Gt<->Le).
Guard negate(const Guard& g);

/// A Shared/Global memory access site of the program.
struct AccessSite {
  std::uint32_t pc = 0;
  ptx::Space space = ptx::Space::Global;
  bool write = false;   // St or Atom
  bool atomic = false;  // Atom
  unsigned width = 4;   // bytes accessed per thread
  AffineExpr addr;      // per-thread address, or ⊤
  /// Path facts holding at this site (every path from entry passes the
  /// guards).  Feed to expr_range for path-sensitive bounds.
  std::vector<Guard> guards;
};

/// Full analysis output: access sites plus per-branch guard facts.
struct ProgramFacts {
  std::vector<AccessSite> sites;  // pc order
  /// For each predicated branch (pc of the IPBra) whose predicate has a
  /// tracked affine comparison: the fact that holds on the *taken*
  /// edge, branch polarity already applied.
  std::unordered_map<std::uint32_t, Guard> taken_facts;
};

ProgramFacts analyze_program(const ptx::Program& prg,
                             const LaunchEnv& env = {});

/// Everything the lint passes read of one non-empty kernel under one
/// launch, worked out once (analysis::lint_kernel builds one and hands
/// it to every pass).
struct KernelAnalysis {
  KernelAnalysis(const ptx::Program& prg, const LaunchEnv& launch);

  /// Blocks reachable from the predicated branch at `branch_pc` before
  /// its ipostdom join, in BFS order: where the warp runs diverged.
  /// The join itself is warp-uniform again and not part of it.
  [[nodiscard]] std::vector<std::uint32_t> divergent_region(
      std::uint32_t branch_pc) const;

  LaunchEnv env;
  ptx::Cfg cfg;
  std::vector<std::uint32_t> ipostdom;  // cfg.ipostdom()
  std::vector<bool> divergent;          // ptx::divergent_pbras, by pc
  ProgramFacts facts;                   // analyze_program(prg, env)
};

/// Run the abstract interpreter and collect every Shared/Global
/// Ld/St/Atom site in pc order (analyze_program().sites).
std::vector<AccessSite> analyze_addresses(const ptx::Program& prg,
                                          const LaunchEnv& env = {});

/// Value range [lo, hi] of a symbol under the launch, when finite.
std::optional<std::pair<std::int64_t, std::int64_t>> sym_range(
    const Sym& s, const LaunchEnv& env);

/// Value range [lo, hi] of an expression under the launch, when every
/// needed bound is finite.  Guards tighten single-symbol constraints:
/// a fact `k·s + c cmp 0` clips s's range, so `if (tid < n)` bounds a
/// tid-indexed access even when ntid alone would not.  Symbols other
/// than Param are intrinsically >= 0; a modulo component contributes
/// scale·[0, modulus-1].
std::optional<std::pair<std::int64_t, std::int64_t>> expr_range(
    const AffineExpr& e, const LaunchEnv& env,
    const std::vector<Guard>& guards = {});

}  // namespace cac::analysis
