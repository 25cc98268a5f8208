#include "sem/step.h"

#include <algorithm>
#include <map>
#include <optional>

#include "support/bits.h"
#include "support/diag.h"

namespace cac::sem {

using ptx::BinOp;
using ptx::CmpOp;
using ptx::DType;
using ptx::Imm;
using ptx::Instr;
using ptx::Operand;
using ptx::Reg;
using ptx::RegImm;
using ptx::Space;
using ptx::Sreg;
using ptx::TerOp;
using ptx::TypeClass;
using ptx::UnOp;

void StepEvents::clear() {
  invalid_reads.clear();
  store_conflicts.clear();
  uninit_reads.clear();
  accesses.clear();
}

bool StepEvents::empty() const {
  return invalid_reads.empty() && store_conflicts.empty() &&
         uninit_reads.empty() && accesses.empty();
}

namespace {

// ---------------------------------------------------------------------
// Operands (paper §III-5), resolved against the warp once per
// instruction; evaluating one lane is then an array read.
// ---------------------------------------------------------------------

/// An operand.  A register (or [reg+imm]) operand points at the
/// register's row, null when no lane has written it; reading an
/// unwritten lane yields 0 and an uninitialized-read event.
class Src {
 public:
  Src(const Warp& w, const KernelConfig& kc, const Operand& op,
      StepEvents* events)
      : w_(w), kc_(kc), events_(events) {
    if (const auto* r = std::get_if<Reg>(&op)) {
      set_reg(*r);
    } else if (const auto* ri = std::get_if<RegImm>(&op)) {
      set_reg(ri->reg);
      imm_ = static_cast<std::uint64_t>(ri->offset);
    } else if (const auto* sr = std::get_if<Sreg>(&op)) {
      sreg_ = *sr;
    } else {
      imm_ = static_cast<std::uint64_t>(std::get<Imm>(op).value);
    }
  }

  std::uint64_t operator()(std::uint32_t lane) const {
    if (reg_) {
      if (row_ != nullptr && lane_set(row_ + w_.lanes(), lane)) {
        return row_[lane] + imm_;
      }
      if (events_) events_->uninit_reads.push_back({w_.tid(lane), *reg_});
      return imm_;
    }
    if (sreg_) return sreg_aux(kc_, w_.tid(lane), *sreg_);
    return imm_;
  }

 private:
  void set_reg(const Reg& r) {
    reg_ = r;
    row_ = w_.find_reg(r);
  }

  const Warp& w_;
  const KernelConfig& kc_;
  StepEvents* events_;
  std::optional<Reg> reg_;
  std::optional<Sreg> sreg_;
  const std::uint64_t* row_ = nullptr;
  std::uint64_t imm_ = 0;
};

/// A destination register row: a write truncates to the register's
/// width and marks the lane written.
struct RegDst {
  std::uint64_t* row;
  std::uint32_t lanes;
  unsigned width;

  void operator()(std::uint32_t lane, std::uint64_t v) const {
    row[lane] = truncate(v, width);
    row[lanes + lane / 64] |= 1ull << (lane % 64);
  }
};

/// A destination predicate row (value mask, then written mask).
struct PredDst {
  std::uint64_t* row;
  std::size_t words;

  void operator()(std::uint32_t lane, bool v) const {
    const std::uint64_t bit = 1ull << (lane % 64);
    row[lane / 64] = v ? row[lane / 64] | bit : row[lane / 64] & ~bit;
    row[words + lane / 64] |= bit;
  }
};

// ---------------------------------------------------------------------
// ALU semantics at a fixed width/signedness.
// ---------------------------------------------------------------------

std::uint64_t eval_bop(BinOp op, std::uint64_t ra, std::uint64_t rb,
                       const DType& t) {
  const unsigned w = t.width;
  const std::uint64_t a = truncate(ra, w);
  const std::uint64_t b = truncate(rb, w);
  const bool sgn = t.is_signed();
  switch (op) {
    case BinOp::Add: return truncate(a + b, w);
    case BinOp::Sub: return truncate(a - b, w);
    case BinOp::Mul: return truncate(a * b, w);
    case BinOp::MulHi: {
      if (sgn) {
        const auto p = static_cast<__int128>(to_signed(a, w)) *
                       static_cast<__int128>(to_signed(b, w));
        return truncate(static_cast<std::uint64_t>(p >> w), w);
      }
      const auto p = static_cast<unsigned __int128>(a) *
                     static_cast<unsigned __int128>(b);
      return truncate(static_cast<std::uint64_t>(p >> w), w);
    }
    case BinOp::MulWide: {
      // Result width is 2w (clamped to 64); mul.wide is defined by PTX
      // for widths up to 32.
      const unsigned ww = w >= 64 ? 64 : 2 * w;
      if (sgn) {
        const auto p = static_cast<__int128>(to_signed(a, w)) *
                       static_cast<__int128>(to_signed(b, w));
        return truncate(static_cast<std::uint64_t>(p), ww);
      }
      const auto p = static_cast<unsigned __int128>(a) *
                     static_cast<unsigned __int128>(b);
      return truncate(static_cast<std::uint64_t>(p), ww);
    }
    case BinOp::Div: {
      // PTX leaves integer division by zero machine-specific; the model
      // fixes it to the all-ones pattern so executions are deterministic.
      if (b == 0) return low_mask(w);
      if (sgn) {
        const std::int64_t sa = to_signed(a, w);
        const std::int64_t sb = to_signed(b, w);
        if (sa == to_signed(1ull << (w - 1), w) && sb == -1) {
          return a;  // INT_MIN / -1 wraps to INT_MIN
        }
        return truncate(static_cast<std::uint64_t>(sa / sb), w);
      }
      return truncate(a / b, w);
    }
    case BinOp::Rem: {
      if (b == 0) return a;  // fixed analogously to Div
      if (sgn) {
        const std::int64_t sa = to_signed(a, w);
        const std::int64_t sb = to_signed(b, w);
        if (sa == to_signed(1ull << (w - 1), w) && sb == -1) return 0;
        return truncate(static_cast<std::uint64_t>(sa % sb), w);
      }
      return truncate(a % b, w);
    }
    case BinOp::Min:
      if (sgn) return to_signed(a, w) < to_signed(b, w) ? a : b;
      return a < b ? a : b;
    case BinOp::Max:
      if (sgn) return to_signed(a, w) > to_signed(b, w) ? a : b;
      return a > b ? a : b;
    case BinOp::And: return a & b;
    case BinOp::Or: return a | b;
    case BinOp::Xor: return a ^ b;
    case BinOp::Shl: return shl(a, static_cast<unsigned>(b & 0xff), w);
    case BinOp::Shr:
      return sgn ? ashr(a, static_cast<unsigned>(b & 0xff), w)
                 : lshr(a, static_cast<unsigned>(b & 0xff), w);
  }
  throw KernelError("unknown binary op");
}

std::uint64_t eval_top(TerOp op, std::uint64_t ra, std::uint64_t rb,
                       std::uint64_t rc, const DType& t) {
  switch (op) {
    case TerOp::MadLo: {
      const std::uint64_t p = eval_bop(BinOp::Mul, ra, rb, t);
      return eval_bop(BinOp::Add, p, rc, t);
    }
    case TerOp::MadWide: {
      const std::uint64_t p = eval_bop(BinOp::MulWide, ra, rb, t);
      const unsigned ww = t.width >= 64 ? 64 : 2 * t.width;
      const DType wide{t.cls, static_cast<std::uint8_t>(ww)};
      return eval_bop(BinOp::Add, p, rc, wide);
    }
  }
  throw KernelError("unknown ternary op");
}

bool eval_cmp(CmpOp op, std::uint64_t ra, std::uint64_t rb, const DType& t) {
  const unsigned w = t.width;
  const std::uint64_t a = truncate(ra, w);
  const std::uint64_t b = truncate(rb, w);
  if (t.is_signed()) {
    const std::int64_t sa = to_signed(a, w);
    const std::int64_t sb = to_signed(b, w);
    switch (op) {
      case CmpOp::Eq: return sa == sb;
      case CmpOp::Ne: return sa != sb;
      case CmpOp::Lt: return sa < sb;
      case CmpOp::Le: return sa <= sb;
      case CmpOp::Gt: return sa > sb;
      case CmpOp::Ge: return sa >= sb;
    }
  }
  switch (op) {
    case CmpOp::Eq: return a == b;
    case CmpOp::Ne: return a != b;
    case CmpOp::Lt: return a < b;
    case CmpOp::Le: return a <= b;
    case CmpOp::Gt: return a > b;
    case CmpOp::Ge: return a >= b;
  }
  throw KernelError("unknown comparison op");
}

// ---------------------------------------------------------------------
// Memory addressing with per-block Shared banks.
// ---------------------------------------------------------------------

struct Access {
  std::uint64_t eff_addr = 0;  // address within the flat space
  bool ok = false;
};

Access resolve(const mem::Memory& mu, Space ss, std::uint32_t block,
               std::uint64_t addr, std::uint32_t len) {
  if (ss == Space::Shared) {
    if (addr > mu.shared_size() || len > mu.shared_size() - addr) {
      return {0, false};
    }
    return {mu.shared_base(block) + addr, true};
  }
  return {addr, mu.in_bounds(ss, addr, len)};
}

std::string oob_message(const ptx::Program& prg, std::uint32_t pc,
                        std::uint32_t tid, Space ss, std::uint64_t addr,
                        std::uint32_t len) {
  return "out-of-bounds access at pc " + std::to_string(pc) + " (" +
         ptx::to_string(prg.fetch(pc)) + "): thread " + std::to_string(tid) +
         " touches " + ptx::to_string(ss) + "[" + std::to_string(addr) +
         ".." + std::to_string(addr + len - 1) + "]";
}

/// Thread visit order for memory effects (the nd_map nondeterminism).
std::vector<std::uint32_t> visit_order(std::size_t n,
                                       const ThreadOrder& order) {
  std::vector<std::uint32_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = static_cast<std::uint32_t>(i);
  switch (order.kind) {
    case ThreadOrder::Kind::Ascending:
      break;
    case ThreadOrder::Kind::Descending:
      std::reverse(idx.begin(), idx.end());
      break;
    case ThreadOrder::Kind::Permuted: {
      std::vector<std::uint32_t> out;
      std::vector<bool> used(n, false);
      for (std::uint32_t p : order.perm) {
        if (p < n && !used[p]) {
          out.push_back(p);
          used[p] = true;
        }
      }
      for (std::uint32_t i = 0; i < n; ++i) {
        if (!used[i]) out.push_back(i);
      }
      return out;
    }
  }
  return idx;
}

/// Sign- or zero-extend a loaded/converted value of type `t` into a
/// destination register's width.
std::uint64_t extend_for(const DType& t, std::uint64_t v, unsigned dst_w) {
  const std::uint64_t low = truncate(v, t.width);
  if (t.is_signed() && dst_w > t.width) {
    return sign_extend(low, t.width, dst_w);
  }
  return low;
}

// ---------------------------------------------------------------------
// Per-rule execution on the left-most leaf's lanes.
// ---------------------------------------------------------------------

class LeafExec {
 public:
  LeafExec(const ptx::Program& prg, const KernelConfig& kc,
           std::uint32_t block, Warp& w, mem::Memory& mu,
           const StepOptions& opts, StepEvents* events)
      : prg_(prg),
        kc_(kc),
        block_(block),
        w_(w),
        pc_(w.pc()),
        active_(w.active_lanes()),
        any_active_(std::any_of(active_, active_ + w.mask_words(),
                                [](std::uint64_t m) { return m != 0; })),
        mu_(mu),
        opts_(opts),
        events_(events) {}

  StepResult run(const Instr& instr) {
    return std::visit([this](const auto& i) { return exec(i); }, instr);
  }

 private:
  // Destinations first, then sources: adding a destination row moves
  // the rows after it.  An empty leaf writes nothing, so it adds no
  // row (every row in the directory has a written lane).
  [[nodiscard]] RegDst dst(const Reg& r) {
    return {any_active_ ? w_.reg_row_for_write(r) : nullptr, w_.lanes(),
            r.width};
  }
  [[nodiscard]] PredDst pred_dst(const ptx::Pred& p) {
    return {any_active_ ? w_.pred_row_for_write(p) : nullptr,
            w_.mask_words()};
  }
  [[nodiscard]] Src src(const Operand& op) const {
    return Src(w_, kc_, op, events_);
  }

  template <typename F>
  void each_lane(F&& f) const {
    for_each_lane(active_, w_.mask_words(), f);
  }
  /// The leaf's lanes, ascending: the thread order of nd_map.
  [[nodiscard]] std::vector<std::uint32_t> lane_list() const {
    std::vector<std::uint32_t> out;
    each_lane([&](std::uint32_t l) { out.push_back(l); });
    return out;
  }

  StepResult advance() {
    w_.set_pc(pc_ + 1);
    return {};
  }

  StepResult exec(const ptx::INop&) { return advance(); }

  StepResult exec(const ptx::IBop& i) {
    const RegDst d = dst(i.dst);
    const Src a = src(i.a), b = src(i.b);
    each_lane([&](std::uint32_t l) {
      const std::uint64_t va = a(l);
      const std::uint64_t vb = b(l);
      d(l, eval_bop(i.op, va, vb, i.type));
    });
    return advance();
  }

  StepResult exec(const ptx::ITop& i) {
    const RegDst d = dst(i.dst);
    const Src a = src(i.a), b = src(i.b), c = src(i.c);
    each_lane([&](std::uint32_t l) {
      const std::uint64_t va = a(l);
      const std::uint64_t vb = b(l);
      const std::uint64_t vc = c(l);
      d(l, eval_top(i.op, va, vb, vc, i.type));
    });
    return advance();
  }

  StepResult exec(const ptx::IUop& i) {
    const unsigned w = i.type.width;
    const RegDst d = dst(i.dst);
    const Src src_a = src(i.a);
    each_lane([&](std::uint32_t l) {
      const std::uint64_t raw = src_a(l);
      const std::uint64_t a = truncate(raw, w);
      std::uint64_t v = 0;
      switch (i.op) {
        case UnOp::Not: v = ~a; break;
        case UnOp::Neg: v = 0 - a; break;
        case UnOp::Cvt: v = extend_for(i.type, raw, i.dst.width); break;
        case UnOp::Abs: {
          const std::int64_t s = to_signed(a, w);
          v = s < 0 ? static_cast<std::uint64_t>(-s) : a;
          break;
        }
        case UnOp::Popc: v = static_cast<std::uint64_t>(
                             __builtin_popcountll(a));
          break;
        case UnOp::Clz:
          v = a == 0 ? w
                     : static_cast<std::uint64_t>(__builtin_clzll(a)) -
                           (64 - w);
          break;
        case UnOp::Brev: {
          std::uint64_t r = 0;
          for (unsigned b = 0; b < w; ++b) {
            r = (r << 1) | ((a >> b) & 1);
          }
          v = r;
          break;
        }
      }
      d(l, v);  // the write truncates at the register width
    });
    return advance();
  }

  StepResult exec(const ptx::IMov& i) {
    const RegDst d = dst(i.dst);
    const Src s = src(i.src);
    each_lane([&](std::uint32_t l) { d(l, s(l)); });
    return advance();
  }

  StepResult exec(const ptx::ILd& i) {
    const std::uint32_t len = i.type.bytes();
    const std::vector<std::uint32_t> lanes = lane_list();
    // Two-phase: resolve and bounds-check every lane, then update.
    std::vector<Access> acc(lanes.size());
    {
      const Src addr = src(i.addr);
      for (std::size_t k = 0; k < lanes.size(); ++k) {
        const std::uint64_t a = addr(lanes[k]);
        acc[k] = resolve(mu_, i.space, block_, a, len);
        if (!acc[k].ok) {
          return {StepStatus::Fault, oob_message(prg_, pc_, w_.tid(lanes[k]),
                                                 i.space, a, len)};
        }
      }
    }
    const RegDst d = dst(i.dst);
    for (std::size_t k = 0; k < lanes.size(); ++k) {
      const std::uint32_t tid = w_.tid(lanes[k]);
      const std::uint64_t raw = mu_.load(i.space, acc[k].eff_addr, len);
      if (events_ && !mu_.all_valid(i.space, acc[k].eff_addr, len)) {
        events_->invalid_reads.push_back({i.space, acc[k].eff_addr, len, tid});
      }
      if (events_ && opts_.log_accesses && i.space != Space::Param &&
          i.space != Space::Const) {
        events_->accesses.push_back(
            {i.space, acc[k].eff_addr, len, tid, false, false});
      }
      d(lanes[k], extend_for(i.type, raw, i.dst.width));
    }
    return advance();
  }

  StepResult exec(const ptx::ISt& i) {
    if (i.space == Space::Const || i.space == Space::Param) {
      return {StepStatus::Fault, "store to read-only space " +
                                     ptx::to_string(i.space) + " at pc " +
                                     std::to_string(pc_)};
    }
    const std::uint32_t len = i.type.bytes();
    struct Pending {
      std::uint64_t eff_addr;
      std::uint64_t value;
      std::uint32_t tid;
    };
    const std::vector<std::uint32_t> lanes = lane_list();
    std::vector<Pending> writes(lanes.size());
    const Src addr = src(i.addr);
    const Src value = src(i.src);
    for (std::size_t k = 0; k < lanes.size(); ++k) {
      const std::uint32_t tid = w_.tid(lanes[k]);
      const std::uint64_t a_raw = addr(lanes[k]);
      const Access a = resolve(mu_, i.space, block_, a_raw, len);
      if (!a.ok) {
        return {StepStatus::Fault,
                oob_message(prg_, pc_, tid, i.space, a_raw, len)};
      }
      writes[k] = {a.eff_addr, truncate(value(lanes[k]), i.type.width), tid};
    }
    // update(mu, v): apply lane effects in the scheduler-chosen order.
    // Plain stores leave the valid bit false (paper §III-2: the
    // hardware does not guarantee synchronization of stored values).
    std::map<std::uint64_t, std::pair<std::uint8_t, std::uint32_t>> seen;
    for (std::uint32_t k : visit_order(writes.size(), opts_.order)) {
      const Pending& p = writes[k];
      mu_.store(i.space, p.eff_addr, len, p.value, /*valid=*/false);
      if (events_ && opts_.log_accesses) {
        events_->accesses.push_back(
            {i.space, p.eff_addr, len, p.tid, true, false});
      }
      if (events_) {
        for (std::uint32_t byte = 0; byte < len; ++byte) {
          const auto b =
              static_cast<std::uint8_t>(p.value >> (8 * byte));
          auto [it, inserted] =
              seen.try_emplace(p.eff_addr + byte, b, p.tid);
          if (!inserted && it->second.second != p.tid &&
              it->second.first != b) {
            events_->store_conflicts.push_back(
                {i.space, p.eff_addr + byte, it->second.second, p.tid});
          }
        }
      }
    }
    return advance();
  }

  StepResult exec(const ptx::IBra& i) {
    w_.set_pc(i.target);
    return {};
  }

  StepResult exec(const ptx::ISetp& i) {
    const PredDst d = pred_dst(i.dst);
    const Src a = src(i.a), b = src(i.b);
    each_lane([&](std::uint32_t l) {
      const std::uint64_t va = a(l);
      const std::uint64_t vb = b(l);
      d(l, eval_cmp(i.cmp, va, vb, i.type));
    });
    return advance();
  }

  StepResult exec(const ptx::IPBra& i) {
    // Split the leaf's lanes by predicate value; the fall-through set
    // keeps executing first (left side of the Div), the taken set
    // waits.  An unwritten predicate lane reads false.
    const std::size_t words = w_.mask_words();
    const std::uint64_t* p = w_.find_pred(i.pred);
    std::vector<std::uint64_t> split(2 * words);  // fall, then taken
    for (std::size_t k = 0; k < words; ++k) {
      const std::uint64_t v = p != nullptr ? p[k] : 0;
      split[words + k] = active_[k] & (i.negated ? ~v : v);
      split[k] = active_[k] & ~split[words + k];
    }
    w_.branch(pc_ + 1, split.data(), i.target, split.data() + words);
    return {};
  }

  StepResult exec(const ptx::ISelp& i) {
    const RegDst d = dst(i.dst);
    const Src a = src(i.a), b = src(i.b);
    const std::uint64_t* p = w_.find_pred(i.pred);
    each_lane([&](std::uint32_t l) {
      const std::uint64_t va = a(l);
      const std::uint64_t vb = b(l);
      d(l, truncate(p != nullptr && lane_set(p, l) ? va : vb, i.type.width));
    });
    return advance();
  }

  StepResult exec(const ptx::IAtom& i) {
    const std::uint32_t len = i.type.bytes();
    // Atomics are serialized in the scheduler-chosen lane order; each
    // commits immediately with the valid bit SET — the paper's
    // "excepting atomic instructions" carve-out (§III-2).
    const std::vector<std::uint32_t> lanes = lane_list();
    const RegDst d = dst(i.dst);
    const Src addr = src(i.addr), src_b = src(i.b), src_c = src(i.c);
    for (std::uint32_t k : visit_order(lanes.size(), opts_.order)) {
      const std::uint32_t l = lanes[k];
      const std::uint64_t a_raw = addr(l);
      const Access a = resolve(mu_, i.space, block_, a_raw, len);
      if (!a.ok) {
        return {StepStatus::Fault,
                oob_message(prg_, pc_, w_.tid(l), i.space, a_raw, len)};
      }
      const std::uint64_t old = mu_.load(i.space, a.eff_addr, len);
      const std::uint64_t b = src_b(l);
      std::uint64_t nv = 0;
      switch (i.op) {
        case ptx::AtomOp::Add: nv = eval_bop(BinOp::Add, old, b, i.type); break;
        case ptx::AtomOp::Exch: nv = truncate(b, i.type.width); break;
        case ptx::AtomOp::Min: nv = eval_bop(BinOp::Min, old, b, i.type); break;
        case ptx::AtomOp::Max: nv = eval_bop(BinOp::Max, old, b, i.type); break;
        case ptx::AtomOp::And: nv = eval_bop(BinOp::And, old, b, i.type); break;
        case ptx::AtomOp::Or: nv = eval_bop(BinOp::Or, old, b, i.type); break;
        case ptx::AtomOp::Xor: nv = eval_bop(BinOp::Xor, old, b, i.type); break;
        case ptx::AtomOp::Cas: {
          const std::uint64_t c = src_c(l);
          nv = truncate(old, i.type.width) == truncate(b, i.type.width)
                   ? truncate(c, i.type.width)
                   : truncate(old, i.type.width);
          break;
        }
      }
      mu_.store(i.space, a.eff_addr, len, nv, /*valid=*/true);
      if (events_ && opts_.log_accesses) {
        events_->accesses.push_back(
            {i.space, a.eff_addr, len, w_.tid(l), true, true});
      }
      d(l, extend_for(i.type, old, i.dst.width));
    }
    return advance();
  }

  StepResult exec(const ptx::IVote& i) {
    // Warp votes read every lane's predicate; a divergent warp has no
    // well-defined full lane set, so the model requires reconvergence
    // first (real PTX: inactive lanes contribute identity values —
    // compilers emit votes in uniform regions).
    if (w_.divergent()) {
      return {StepStatus::Fault,
              "vote in a divergent warp at pc " + std::to_string(pc_)};
    }
    bool all = true, any = false;
    std::uint32_t ballot = 0;
    std::uint32_t k = 0;
    const std::uint64_t* src_p = w_.find_pred(i.src);
    each_lane([&](std::uint32_t l) {
      const bool p = src_p != nullptr && lane_set(src_p, l);
      all &= p;
      any |= p;
      if (p && k < 32) ballot |= 1u << k;
      ++k;
    });
    if (i.mode == ptx::VoteMode::Ballot) {
      const RegDst d = dst(i.dst_ballot);
      each_lane([&](std::uint32_t l) { d(l, ballot); });
    } else {
      const PredDst d = pred_dst(i.dst);
      const bool v = i.mode == ptx::VoteMode::All ? all : any;
      each_lane([&](std::uint32_t l) { d(l, v); });
    }
    return advance();
  }

  StepResult exec(const ptx::IShfl& i) {
    if (w_.divergent()) {
      return {StepStatus::Fault,
              "shfl in a divergent warp at pc " + std::to_string(pc_)};
    }
    const std::vector<std::uint32_t> lanes = lane_list();
    const auto n = static_cast<std::uint32_t>(lanes.size());
    const RegDst d = dst(i.dst);
    // Read all source lanes first: shuffles exchange pre-instruction
    // values even when dst == src.
    std::vector<std::uint64_t> vals(n);
    const Src s = src(i.src);
    for (std::uint32_t k = 0; k < n; ++k) vals[k] = s(lanes[k]);
    const Src lane_op = src(i.lane);
    for (std::uint32_t k = 0; k < n; ++k) {
      const auto lane_arg =
          static_cast<std::uint32_t>(truncate(lane_op(lanes[k]), 32));
      std::uint32_t j = k;
      switch (i.mode) {
        case ptx::ShflMode::Idx: j = lane_arg; break;
        case ptx::ShflMode::Up:
          j = lane_arg <= k ? k - lane_arg : k;
          break;
        case ptx::ShflMode::Down:
          j = k + lane_arg < n ? k + lane_arg : k;
          break;
        case ptx::ShflMode::Bfly: j = k ^ lane_arg; break;
      }
      d(lanes[k], truncate(j < n ? vals[j] : vals[k], i.type.width));
    }
    return advance();
  }

  StepResult exec(const ptx::ISync&) {
    throw KernelError("Sync reached leaf executor (handled at warp level)");
  }
  StepResult exec(const ptx::IBar&) {
    throw KernelError("Bar reached warp executor (handled by lift-bar)");
  }
  StepResult exec(const ptx::IExit&) {
    throw KernelError("Exit reached warp executor (warp is complete)");
  }

  const ptx::Program& prg_;
  const KernelConfig& kc_;
  std::uint32_t block_;
  Warp& w_;
  std::uint32_t pc_;  // the leaf's pc when the step began
  const std::uint64_t* active_;  // the leaf's lanes (the tree is stable
                                 // until PBra, which reads it first)
  bool any_active_;
  mem::Memory& mu_;
  const StepOptions& opts_;
  StepEvents* events_;
};

}  // namespace

StepResult step_warp(const ptx::Program& prg, const KernelConfig& kc,
                     std::uint32_t block, Warp& w, mem::Memory& mu,
                     const StepOptions& opts, StepEvents* events) {
  const Instr& instr = prg.fetch(w.pc());
  if (ptx::is_bar(instr) || ptx::is_exit(instr)) {
    throw KernelError("step_warp called at a Bar/Exit instruction (pc " +
                      std::to_string(w.pc()) + ")");
  }
  if (ptx::is_sync(instr)) {
    // Fig. 1 rule (sync): applies to the whole warp tree.
    w = sync_warp(std::move(w));
    return {};
  }
  // Fig. 1 rule (div): for i != Sync, the left-most warp executes.
  return LeafExec(prg, kc, block, w, mu, opts, events).run(instr);
}

WarpStatus warp_status(const ptx::Program& prg, const Warp& w) {
  WarpStatus s;
  s.pc = w.pc();
  const Instr& instr = prg.fetch(s.pc);
  if (const auto* i = std::get_if<ptx::ILd>(&instr)) s.space = i->space;
  if (const auto* i = std::get_if<ptx::ISt>(&instr)) s.space = i->space;
  if (const auto* i = std::get_if<ptx::IAtom>(&instr)) s.space = i->space;
  const bool bar = ptx::is_bar(instr);
  const bool exit = ptx::is_exit(instr);
  s.runnable = !bar && !exit;
  // A uniform tree's left-most leaf is its only one, so pc is its pc.
  s.at_barrier = bar && !w.divergent();
  s.complete = exit && !w.divergent();
  return s;
}

std::optional<Space> step_space(const ptx::Program& prg, const Warp& w) {
  return warp_status(prg, w).space;
}

std::vector<Choice> eligible_choices(const ptx::Program& prg, const Grid& g) {
  std::vector<Choice> out;
  for (std::uint32_t b = 0; b < g.blocks.size(); ++b) {
    const std::vector<WarpRef>& warps = g.blocks[b].warps;
    append_block_choices(
        b, static_cast<std::uint32_t>(warps.size()),
        [&](std::uint32_t w) { return warp_status(prg, *warps[w]); }, out);
  }
  return out;
}

StepResult apply_choice(const ptx::Program& prg, const KernelConfig& kc,
                        Machine& m, const Choice& c, const StepOptions& opts,
                        StepEvents* events) {
  if (c.block >= m.grid.blocks.size()) {
    throw KernelError("choice references nonexistent block");
  }
  // Every rule below mutates the machine, so the memoized state hash
  // is stale from here on.  (Memory invalidates its own cache through
  // its mutators; this covers the grid side and the combined hash.)
  m.invalidate_hash();
  Block& blk = m.grid.blocks[c.block];
  if (c.kind == Choice::Kind::ExecWarp) {
    if (c.warp >= blk.warps.size()) {
      throw KernelError("choice references nonexistent warp");
    }
    const Warp& w = *blk.warps[c.warp];
    if (!warp_status(prg, w).runnable) {
      throw KernelError("ExecWarp choice is not eligible (warp at " +
                        ptx::to_string(prg.fetch(w.pc())) + ")");
    }
    // Only the stepped warp is unshared; the others stay shared with
    // the machine this one was copied from.
    return step_warp(prg, kc, c.block, unique_warp(blk.warps[c.warp]),
                     m.memory, opts, events);
  }
  // lift-bar: all warps uniform at Bar -> commit Shared, advance pcs.
  if (!block_at_barrier(prg, blk)) {
    throw KernelError("LiftBar choice is not eligible");
  }
  for (WarpRef& slot : blk.warps) {
    Warp& w = unique_warp(slot);
    w.set_uni_pc(w.uni_pc() + 1);
  }
  m.memory.commit_shared(c.block);
  return {};
}

bool warp_complete(const ptx::Program& prg, const Warp& w) {
  return warp_status(prg, w).complete;
}

bool block_complete(const ptx::Program& prg, const Block& b) {
  return std::all_of(b.warps.begin(), b.warps.end(), [&](const WarpRef& w) {
    return warp_complete(prg, *w);
  });
}

bool terminated(const ptx::Program& prg, const Grid& g) {
  return std::all_of(g.blocks.begin(), g.blocks.end(), [&](const Block& b) {
    return block_complete(prg, b);
  });
}

bool block_at_barrier(const ptx::Program& prg, const Block& b) {
  if (b.warps.empty()) return false;
  return std::all_of(b.warps.begin(), b.warps.end(), [&](const WarpRef& w) {
    return warp_status(prg, *w).at_barrier;
  });
}

bool is_stuck(const ptx::Program& prg, const Grid& g) {
  return !terminated(prg, g) && eligible_choices(prg, g).empty();
}

std::string stuck_reason(const ptx::Program& prg, const Grid& g) {
  if (!is_stuck(prg, g)) return "";
  std::string out;
  for (std::uint32_t b = 0; b < g.blocks.size(); ++b) {
    const Block& blk = g.blocks[b];
    if (block_complete(prg, blk)) continue;
    for (std::uint32_t wi = 0; wi < blk.warps.size(); ++wi) {
      const Warp& w = *blk.warps[wi];
      const Instr& i = prg.fetch(w.pc());
      const std::string where =
          "block " + std::to_string(b) + " warp " + std::to_string(wi);
      if (w.divergent() && ptx::is_bar(i)) {
        out += where + ": divergent warp reached a barrier (" + w.shape() +
               ") — barrier-divergence deadlock\n";
      } else if (w.divergent() && ptx::is_exit(i)) {
        out += where + ": divergent warp reached Exit (" + w.shape() +
               ") — missing reconvergence Sync\n";
      } else if (!w.divergent() && ptx::is_bar(i)) {
        out += where + ": waiting at barrier that can never lift\n";
      }
    }
  }
  return out.empty() ? "stuck for an unidentified reason\n" : out;
}

std::string to_string(const Choice& c) {
  if (c.kind == Choice::Kind::ExecWarp) {
    return "exec(b" + std::to_string(c.block) + ",w" + std::to_string(c.warp) +
           ")";
  }
  return "lift-bar(b" + std::to_string(c.block) + ")";
}

}  // namespace cac::sem
