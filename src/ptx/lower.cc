#include "ptx/lower.h"

#include <algorithm>
#include <array>
#include <bit>
#include <optional>
#include <set>

#include "ptx/cfg.h"
#include "ptx/defuse.h"

namespace cac::ptx {

namespace {

/// A dotted opcode like "ld.global.u32" split into views of its pieces;
/// piece 0 is the mnemonic.  Bounded: no modeled opcode has more than
/// five pieces, and one with more than kMax is rejected as a whole.
class OpcodePieces {
 public:
  static constexpr std::size_t kMax = 16;

  explicit OpcodePieces(std::string_view opcode) {
    for (;;) {
      const std::size_t dot = opcode.find('.');
      if (n_ == kMax) {
        overflow_ = true;
        return;
      }
      piece_[n_++] = opcode.substr(0, dot);
      if (dot == std::string_view::npos) return;
      opcode.remove_prefix(dot + 1);
    }
  }

  [[nodiscard]] bool overflow() const { return overflow_; }
  [[nodiscard]] std::size_t size() const { return n_; }
  [[nodiscard]] std::string_view operator[](std::size_t i) const {
    return piece_[i];
  }
  [[nodiscard]] const std::string_view* begin() const { return piece_.data(); }
  [[nodiscard]] const std::string_view* end() const {
    return piece_.data() + n_;
  }
  [[nodiscard]] bool has(std::string_view p) const {
    return std::find(begin(), end(), p) != end();
  }

 private:
  std::array<std::string_view, kMax> piece_{};
  std::size_t n_ = 0;
  bool overflow_ = false;
};

bool is_type_piece(std::string_view p) {
  if (p.size() < 2) return false;
  if (p[0] != 'u' && p[0] != 's' && p[0] != 'b') return false;
  const std::string_view w = p.substr(1);
  return w == "8" || w == "16" || w == "32" || w == "64";
}

/// dtype_from_suffix with the source position attached: a bad type
/// suffix reports where it was written, not a bare message.
DType typed_suffix(std::string_view suffix, SourceLoc loc) {
  try {
    return dtype_from_suffix(suffix);
  } catch (const PtxError& e) {
    throw PtxError(loc, e.what());
  }
}

std::optional<Space> space_piece(std::string_view p) {
  if (p == "global") return Space::Global;
  if (p == "shared") return Space::Shared;
  if (p == "const") return Space::Const;
  if (p == "param") return Space::Param;
  return std::nullopt;
}

std::optional<Sreg> sreg_from_name(std::string_view name) {
  const auto dot = name.find('.');
  if (dot == std::string_view::npos) return std::nullopt;
  const std::string_view base = name.substr(0, dot);
  const std::string_view dim_s = name.substr(dot + 1);
  SregKind kind;
  if (base == "tid") kind = SregKind::Tid;
  else if (base == "ctaid") kind = SregKind::CtaId;
  else if (base == "ntid") kind = SregKind::NTid;
  else if (base == "nctaid") kind = SregKind::NCtaId;
  else return std::nullopt;
  Dim dim;
  if (dim_s == "x") dim = Dim::X;
  else if (dim_s == "y") dim = Dim::Y;
  else if (dim_s == "z") dim = Dim::Z;
  else return std::nullopt;
  return Sreg{kind, dim};
}

/// The kernel's `.reg` declarations as a flat table.  `%r<n>` declares
/// %r0..%r(n-1) and a bare `%x` the one register %x; a name resolves
/// only if it is exactly one that a declaration declares.  Each
/// declaration owns a range of model indices in its (class, width)
/// space — all predicates share one space — so distinct declared names
/// never alias: the first declaration of a space starts at index 0
/// (%r7 is index 7, as nvcc's numbering reads), and each later one at
/// the next free index.
class RegEnv {
 public:
  void declare(const AstRegDecl& d) {
    Decl decl{d.prefix, d.count, 0, DType{}};
    std::uint64_t* next = &next_pred_;
    if (d.type_suffix != "pred") {
      const DType t = typed_suffix(d.type_suffix, d.loc);
      // BD registers are stored as UI of the same width: the model's reg
      // domain is {UI, SI} x N x N (paper Table I) and PTX b-typed
      // registers carry uninterpreted bits.
      decl.type = DType{t.cls == TypeClass::BD ? TypeClass::UI : t.cls,
                        t.width};
      // Widths are 8, 16, 32 or 64: slots 0 to 3.
      next = &next_reg_[decl.type.cls == TypeClass::SI]
                       [std::countr_zero(unsigned{t.width}) - 3];
    }
    decl.base = *next;
    *next += std::max<std::uint32_t>(d.count, 1);
    (d.type_suffix == "pred" ? preds_ : regs_).push_back(decl);
  }

  [[nodiscard]] Pred pred(std::string_view name, SourceLoc loc) const {
    return Pred{resolve(preds_, name, loc, "predicate").second};
  }

  [[nodiscard]] Reg reg(std::string_view name, SourceLoc loc) const {
    const auto [decl, index] = resolve(regs_, name, loc, "register");
    return Reg{decl->type.cls, decl->type.width, index};
  }

 private:
  struct Decl {
    std::string_view prefix;  // views the AST's declaration
    std::uint32_t count = 0;  // 0: the single register named `prefix`
    std::uint64_t base = 0;   // model index of the first name
    DType type;               // registers only
  };

  /// A decimal index as %r<n> spells it: no sign, no leading zero.
  static bool decimal_index(std::string_view s, std::uint64_t& out) {
    if (s.empty() || s.size() > 10 || (s[0] == '0' && s.size() > 1)) {
      return false;
    }
    out = 0;
    for (const char c : s) {
      if (c < '0' || c > '9') return false;
      out = out * 10 + static_cast<unsigned>(c - '0');
    }
    return true;
  }

  /// The declaration that declares `name`, and its model index.
  static std::pair<const Decl*, std::uint16_t> resolve(
      const std::vector<Decl>& decls, std::string_view name, SourceLoc loc,
      const char* what) {
    const Decl* found = nullptr;
    const Decl* outside = nullptr;  // %r7 against %r<2>
    std::uint64_t index = 0;
    for (const Decl& d : decls) {
      if (!name.starts_with(d.prefix)) continue;
      const std::string_view suffix = name.substr(d.prefix.size());
      std::uint64_t i = 0;
      if (d.count == 0 ? !suffix.empty() : !decimal_index(suffix, i)) continue;
      if (d.count != 0 && i >= d.count) {
        outside = &d;
        continue;
      }
      if (found) {
        throw PtxError(loc, "'%" + std::string(name) +
                                "' is declared more than once");
      }
      found = &d;
      index = d.base + i;
    }
    if (!found && outside) {
      throw PtxError(loc, "'%" + std::string(name) +
                              "' is out of the declared range %" +
                              std::string(outside->prefix) + "<" +
                              std::to_string(outside->count) + ">");
    }
    if (!found) {
      throw PtxError(loc, "'%" + std::string(name) + "' is not a declared " +
                              what);
    }
    if (index > 0xffff) {
      throw PtxError(loc, "register index out of range '%" +
                              std::string(name) + "'");
    }
    return {found, static_cast<std::uint16_t>(index)};
  }

  std::vector<Decl> regs_;
  std::vector<Decl> preds_;
  std::uint64_t next_reg_[2][4] = {};  // next free index: [signed][width]
  std::uint64_t next_pred_ = 0;
};

/// How a mnemonic lowers; `op` picks the operator within a form.
enum class Form : std::uint8_t {
  Bra, Exit, Nop, Sync, Bar, Ld, St, Mov, Cvt, Uop, Setp, Selp, Mad, Mul,
  Vote, Shfl, Atom, Bop,
};

struct Mnemonic {
  std::string_view name;
  Form form;
  std::uint8_t op = 0;
};

template <typename E>
constexpr std::uint8_t op_of(E e) {
  return static_cast<std::uint8_t>(e);
}

/// Every modeled mnemonic, sorted by name.
constexpr Mnemonic kMnemonics[] = {
    {"abs", Form::Uop, op_of(UnOp::Abs)},
    {"add", Form::Bop, op_of(BinOp::Add)},
    {"and", Form::Bop, op_of(BinOp::And)},
    {"atom", Form::Atom},
    {"bar", Form::Bar},  // bar.sync 0: only the whole-block barrier
    {"barrier", Form::Bar},
    {"bra", Form::Bra},
    {"brev", Form::Uop, op_of(UnOp::Brev)},
    {"clz", Form::Uop, op_of(UnOp::Clz)},
    {"cvt", Form::Cvt},
    // cvta.to.global.u64 d, s: state spaces are explicit on every Ld/St
    // of the model, so address-space conversion is the identity (paper
    // §IV) and lowers to Mov.
    {"cvta", Form::Mov},
    {"div", Form::Bop, op_of(BinOp::Div)},
    {"exit", Form::Exit},
    {"ld", Form::Ld},
    {"mad", Form::Mad},
    {"max", Form::Bop, op_of(BinOp::Max)},
    {"min", Form::Bop, op_of(BinOp::Min)},
    {"mov", Form::Mov},
    {"mul", Form::Mul},
    {"neg", Form::Uop, op_of(UnOp::Neg)},
    {"nop", Form::Nop},
    {"not", Form::Uop, op_of(UnOp::Not)},
    {"or", Form::Bop, op_of(BinOp::Or)},
    {"popc", Form::Uop, op_of(UnOp::Popc)},
    {"rem", Form::Bop, op_of(BinOp::Rem)},
    {"ret", Form::Exit},
    {"selp", Form::Selp},
    {"setp", Form::Setp},
    {"shfl", Form::Shfl},
    {"shl", Form::Bop, op_of(BinOp::Shl)},
    {"shr", Form::Bop, op_of(BinOp::Shr)},
    {"ssy", Form::Sync},  // explicit reconvergence point
    {"st", Form::St},
    {"sub", Form::Bop, op_of(BinOp::Sub)},
    {"sync", Form::Sync},
    {"vote", Form::Vote},
    {"xor", Form::Bop, op_of(BinOp::Xor)},
};
static_assert(std::is_sorted(std::begin(kMnemonics), std::end(kMnemonics),
                             [](const Mnemonic& a, const Mnemonic& b) {
                               return a.name < b.name;
                             }));

const Mnemonic* find_mnemonic(std::string_view m) {
  const auto* it = std::lower_bound(
      std::begin(kMnemonics), std::end(kMnemonics), m,
      [](const Mnemonic& e, std::string_view key) { return e.name < key; });
  return it != std::end(kMnemonics) && it->name == m ? it : nullptr;
}

class KernelLowerer {
 public:
  KernelLowerer(const AstKernel& k,
                const std::unordered_map<std::string, std::uint32_t>& shared,
                const LowerOptions& opts)
      : kernel_(k), shared_offsets_(shared), opts_(opts) {}

  Program run() {
    layout_params();
    for (const auto& stmt : kernel_.body) {
      if (const auto* d = std::get_if<AstRegDecl>(&stmt)) env_.declare(*d);
    }
    code_.reserve(kernel_.body.size());
    locs_.reserve(kernel_.body.size());
    for (const auto& stmt : kernel_.body) {
      std::visit([this](const auto& s) { emit_stmt(s); }, stmt);
    }
    resolve_labels();
    if (opts_.insert_syncs) insert_syncs();
    return Program(kernel_.name, std::move(code_), std::move(params_));
  }

  /// Source locations parallel to the returned Program's code; valid
  /// after run().
  [[nodiscard]] std::vector<SourceLoc> take_locs() { return std::move(locs_); }

 private:
  void layout_params() {
    std::uint32_t offset = 0;
    for (const auto& p : kernel_.params) {
      const DType t = typed_suffix(p.type_suffix, p.loc);
      const std::uint32_t align = t.bytes();
      offset = (offset + align - 1) & ~(align - 1);
      params_.push_back(ParamSlot{p.name, t, offset});
      offset += t.bytes();
    }
  }

  void emit_stmt(const AstRegDecl&) {}  // handled in run()

  void emit_stmt(const AstLabel& l) {
    labels_.emplace_back(l.name, static_cast<std::uint32_t>(code_.size()));
  }

  void emit_stmt(const AstInstr& ins) { lower_instr(ins); }

  // ---- operand helpers -------------------------------------------------

  Reg as_reg(const AstOperand& op) const {
    if (op.kind != AstOperand::Kind::Reg) {
      throw PtxError(op.loc, "expected a register operand");
    }
    return env_.reg(op.reg, op.loc);
  }

  Pred as_pred(const AstOperand& op) const {
    if (op.kind != AstOperand::Kind::Reg) {
      throw PtxError(op.loc, "expected a predicate operand");
    }
    return env_.pred(op.reg, op.loc);
  }

  /// General value operand: register, special register or immediate.
  Operand as_value(const AstOperand& op) const {
    switch (op.kind) {
      case AstOperand::Kind::Reg: {
        if (auto s = sreg_from_name(op.reg)) return Operand{*s};
        return Operand{env_.reg(op.reg, op.loc)};
      }
      case AstOperand::Kind::Imm:
        return Operand{Imm{op.imm}};
      case AstOperand::Kind::Sym: {
        // Taking the address of a shared-space symbol.
        auto it = shared_offsets_.find(op.symbol);
        if (it == shared_offsets_.end()) {
          throw PtxError(op.loc, "unknown symbol '" + op.symbol + "'");
        }
        return Operand{Imm{static_cast<std::int64_t>(it->second)}};
      }
      case AstOperand::Kind::Mem:
      case AstOperand::Kind::RegVec:
        throw PtxError(op.loc, "memory/vector operand not allowed here");
    }
    throw PtxError(op.loc, "bad operand");
  }

  /// Address operand of an Ld/St: [%r], [%r+off], [sym], [sym+off].
  /// For Param space the symbol resolves to the parameter slot offset;
  /// for Shared space to the shared layout offset.
  Operand as_address(const AstOperand& op, Space space) const {
    if (op.kind != AstOperand::Kind::Mem) {
      throw PtxError(op.loc, "expected a memory operand");
    }
    if (!op.reg.empty()) {
      const Reg base = env_.reg(op.reg, op.loc);
      if (op.imm == 0) return Operand{base};
      return Operand{RegImm{base, op.imm}};
    }
    if (op.symbol.empty()) {  // absolute [imm] address
      return Operand{Imm{op.imm}};
    }
    std::int64_t base = 0;
    if (space == Space::Param) {
      bool found = false;
      for (const auto& slot : params_) {
        if (slot.name == op.symbol) {
          base = slot.offset;
          found = true;
          break;
        }
      }
      if (!found) {
        throw PtxError(op.loc, "unknown parameter '" + op.symbol + "'");
      }
    } else {
      auto it = shared_offsets_.find(op.symbol);
      if (it == shared_offsets_.end()) {
        throw PtxError(op.loc, "unknown symbol '" + op.symbol + "'");
      }
      base = it->second;
    }
    return Operand{Imm{base + op.imm}};
  }

  /// Address of the k-th element of a vector access.
  Operand offset_address(const AstOperand& op, Space space,
                         std::int64_t extra) const {
    const Operand base = as_address(op, space);
    if (extra == 0) return base;
    if (const auto* r = std::get_if<Reg>(&base)) {
      return Operand{RegImm{*r, extra}};
    }
    if (const auto* ri = std::get_if<RegImm>(&base)) {
      return Operand{RegImm{ri->reg, ri->offset + extra}};
    }
    if (const auto* imm = std::get_if<Imm>(&base)) {
      return Operand{Imm{imm->value + extra}};
    }
    throw PtxError(op.loc, "bad vector address");
  }

  static void check_vector_arity(const OpcodePieces& pieces,
                                 const AstOperand& op, SourceLoc loc) {
    std::size_t expected = 0;
    if (pieces.has("v2")) expected = 2;
    else if (pieces.has("v4")) expected = 4;
    if (expected == 0) {
      throw PtxError(loc, "vector operand on a non-vector access");
    }
    if (op.vec.size() != expected) {
      throw PtxError(loc, "vector access expects " +
                              std::to_string(expected) + " registers, got " +
                              std::to_string(op.vec.size()));
    }
  }

  // ---- instruction lowering --------------------------------------------

  static DType type_of(const OpcodePieces& pieces, SourceLoc loc) {
    for (std::size_t i = pieces.size(); i-- > 0;) {
      if (is_type_piece(pieces[i])) return typed_suffix(pieces[i], loc);
    }
    throw PtxError(loc, "opcode has no type suffix");
  }

  static Space space_of(const OpcodePieces& pieces, Space fallback) {
    for (const std::string_view p : pieces) {
      if (auto s = space_piece(p)) return *s;
    }
    return fallback;
  }

  void require_ops(const AstInstr& ins, std::size_t n) const {
    if (ins.ops.size() != n) {
      throw PtxError(ins.loc, ins.opcode + " expects " + std::to_string(n) +
                                  " operands, got " +
                                  std::to_string(ins.ops.size()));
    }
  }

  void push(Instr i) {
    code_.push_back(std::move(i));
    locs_.push_back(cur_loc_);  // vector expansion shares the stmt's loc
  }

  void lower_instr(const AstInstr& ins) {
    cur_loc_ = ins.loc;
    const OpcodePieces pieces(ins.opcode);
    const Mnemonic* mn = find_mnemonic(pieces[0]);

    // The model predicates branches only (paper §III-3): a guard on any
    // other instruction is outside the modeled subset.
    if (ins.guard && (!mn || mn->form != Form::Bra)) {
      throw PtxError(ins.loc,
                     "predicated '" + ins.opcode +
                         "': the model supports guards on bra only");
    }
    if (!mn) {
      throw PtxError(ins.loc, "unsupported opcode '" + ins.opcode + "'");
    }
    if (pieces.overflow()) {
      throw PtxError(ins.loc,
                     "too many modifiers in opcode '" + ins.opcode + "'");
    }

    switch (mn->form) {
      case Form::Bra: {
        require_ops(ins, 1);
        if (ins.ops[0].kind != AstOperand::Kind::Sym) {
          throw PtxError(ins.loc, "bra expects a label");
        }
        fixups_.emplace_back(code_.size(), ins.ops[0].symbol);
        if (ins.guard) {
          push(IPBra{env_.pred(ins.guard->pred, ins.loc), ins.guard->negated,
                     0});
        } else {
          push(IBra{0});
        }
        return;
      }
      case Form::Exit:
        push(IExit{});
        return;
      case Form::Nop:
        push(INop{});
        return;
      case Form::Sync:
        push(ISync{});
        return;
      case Form::Bar:
        push(IBar{});
        return;
      case Form::Ld: {
        require_ops(ins, 2);
        const Space ss = space_of(pieces, Space::Global);
        const DType t = type_of(pieces, ins.loc);
        if (ins.ops[0].kind == AstOperand::Kind::RegVec) {
          // ld.v2/.v4: one scalar load per element at successive offsets.
          check_vector_arity(pieces, ins.ops[0], ins.loc);
          for (std::size_t k = 0; k < ins.ops[0].vec.size(); ++k) {
            push(ILd{ss, t, env_.reg(ins.ops[0].vec[k], ins.loc),
                     offset_address(ins.ops[1], ss,
                                    static_cast<std::int64_t>(k) * t.bytes())});
          }
          return;
        }
        push(ILd{ss, t, as_reg(ins.ops[0]), as_address(ins.ops[1], ss)});
        return;
      }
      case Form::St: {
        require_ops(ins, 2);
        const Space ss = space_of(pieces, Space::Global);
        const DType t = type_of(pieces, ins.loc);
        if (ins.ops[1].kind == AstOperand::Kind::RegVec) {
          check_vector_arity(pieces, ins.ops[1], ins.loc);
          for (std::size_t k = 0; k < ins.ops[1].vec.size(); ++k) {
            push(ISt{ss, t,
                     offset_address(ins.ops[0], ss,
                                    static_cast<std::int64_t>(k) * t.bytes()),
                     env_.reg(ins.ops[1].vec[k], ins.loc)});
          }
          return;
        }
        push(ISt{ss, t, as_address(ins.ops[0], ss), as_reg(ins.ops[1])});
        return;
      }
      case Form::Mov:
        require_ops(ins, 2);
        push(IMov{as_reg(ins.ops[0]), as_value(ins.ops[1])});
        return;
      case Form::Cvt:
        // cvt.<dst type>.<src type> d, a — `type` records the source
        // interpretation; the destination width comes from the register.
        require_ops(ins, 2);
        if (pieces.size() < 3 || !is_type_piece(pieces[2])) {
          throw PtxError(ins.loc, "cvt needs destination and source types");
        }
        push(IUop{UnOp::Cvt, typed_suffix(pieces[2], ins.loc),
                  as_reg(ins.ops[0]), as_value(ins.ops[1])});
        return;
      case Form::Uop:
        require_ops(ins, 2);
        push(IUop{static_cast<UnOp>(mn->op), type_of(pieces, ins.loc),
                  as_reg(ins.ops[0]), as_value(ins.ops[1])});
        return;
      case Form::Setp: {
        require_ops(ins, 3);
        if (pieces.size() < 2) throw PtxError(ins.loc, "setp needs a cmp op");
        CmpOp cmp;
        const std::string_view c = pieces[1];
        if (c == "eq") cmp = CmpOp::Eq;
        else if (c == "ne") cmp = CmpOp::Ne;
        else if (c == "lt" || c == "lo") cmp = CmpOp::Lt;
        else if (c == "le" || c == "ls") cmp = CmpOp::Le;
        else if (c == "gt" || c == "hi") cmp = CmpOp::Gt;
        else if (c == "ge" || c == "hs") cmp = CmpOp::Ge;
        else {
          throw PtxError(ins.loc,
                         "unsupported setp comparison ." + std::string(c));
        }
        push(ISetp{cmp, type_of(pieces, ins.loc), as_pred(ins.ops[0]),
                   as_value(ins.ops[1]), as_value(ins.ops[2])});
        return;
      }
      case Form::Selp:
        require_ops(ins, 4);
        push(ISelp{type_of(pieces, ins.loc), as_reg(ins.ops[0]),
                   as_value(ins.ops[1]), as_value(ins.ops[2]),
                   as_pred(ins.ops[3])});
        return;
      case Form::Mad:
        require_ops(ins, 4);
        push(ITop{pieces.has("wide") ? TerOp::MadWide : TerOp::MadLo,
                  type_of(pieces, ins.loc), as_reg(ins.ops[0]),
                  as_value(ins.ops[1]), as_value(ins.ops[2]),
                  as_value(ins.ops[3])});
        return;
      case Form::Mul: {
        require_ops(ins, 3);
        BinOp op = BinOp::Mul;
        if (pieces.has("wide")) op = BinOp::MulWide;
        else if (pieces.has("hi")) op = BinOp::MulHi;
        push(IBop{op, type_of(pieces, ins.loc), as_reg(ins.ops[0]),
                  as_value(ins.ops[1]), as_value(ins.ops[2])});
        return;
      }
      case Form::Vote:
        require_ops(ins, 2);
        if (pieces.has("ballot")) {
          push(IVote{VoteMode::Ballot, Pred{}, as_reg(ins.ops[0]),
                     as_pred(ins.ops[1])});
        } else if (pieces.has("all")) {
          push(IVote{VoteMode::All, as_pred(ins.ops[0]), Reg{},
                     as_pred(ins.ops[1])});
        } else if (pieces.has("any")) {
          push(IVote{VoteMode::Any, as_pred(ins.ops[0]), Reg{},
                     as_pred(ins.ops[1])});
        } else {
          throw PtxError(ins.loc, "unsupported vote mode");
        }
        return;
      case Form::Shfl: {
        // shfl[.sync].<mode>.b32 d, a, b[, c[, membermask]] — the clamp
        // and membermask operands are accepted and ignored (the model's
        // warps are whole).
        if (ins.ops.size() < 3) {
          throw PtxError(ins.loc, "shfl expects at least 3 operands");
        }
        ShflMode mode;
        if (pieces.has("idx")) mode = ShflMode::Idx;
        else if (pieces.has("up")) mode = ShflMode::Up;
        else if (pieces.has("down")) mode = ShflMode::Down;
        else if (pieces.has("bfly")) mode = ShflMode::Bfly;
        else throw PtxError(ins.loc, "unsupported shfl mode");
        push(IShfl{mode, type_of(pieces, ins.loc), as_reg(ins.ops[0]),
                   as_reg(ins.ops[1]), as_value(ins.ops[2])});
        return;
      }
      case Form::Atom: {
        const Space ss = space_of(pieces, Space::Global);
        // The last operation piece names the operation.
        static constexpr std::pair<std::string_view, AtomOp> kAtomOps[] = {
            {"add", AtomOp::Add}, {"exch", AtomOp::Exch},
            {"min", AtomOp::Min}, {"max", AtomOp::Max},
            {"and", AtomOp::And}, {"or", AtomOp::Or},
            {"xor", AtomOp::Xor}, {"cas", AtomOp::Cas},
        };
        std::optional<AtomOp> op;
        for (const std::string_view p : pieces) {
          for (const auto& [name, o] : kAtomOps) {
            if (p == name) op = o;
          }
        }
        if (!op) {
          throw PtxError(ins.loc, "unsupported atomic '" + ins.opcode + "'");
        }
        if (*op == AtomOp::Cas) {
          require_ops(ins, 4);
          push(IAtom{*op, ss, type_of(pieces, ins.loc), as_reg(ins.ops[0]),
                     as_address(ins.ops[1], ss), as_value(ins.ops[2]),
                     as_value(ins.ops[3])});
        } else {
          require_ops(ins, 3);
          push(IAtom{*op, ss, type_of(pieces, ins.loc), as_reg(ins.ops[0]),
                     as_address(ins.ops[1], ss), as_value(ins.ops[2]),
                     Operand{Imm{0}}});
        }
        return;
      }
      case Form::Bop:
        require_ops(ins, 3);
        push(IBop{static_cast<BinOp>(mn->op), type_of(pieces, ins.loc),
                  as_reg(ins.ops[0]), as_value(ins.ops[1]),
                  as_value(ins.ops[2])});
        return;
    }
  }

  // ---- label resolution and sync insertion ------------------------------

  void resolve_labels() {
    // A label defined twice resolves to its last definition.
    const auto by_name = [](const auto& a, const auto& b) {
      return a.first < b.first;
    };
    std::stable_sort(labels_.begin(), labels_.end(), by_name);
    for (const auto& [idx, label] : fixups_) {
      const auto it = std::upper_bound(
          labels_.begin(), labels_.end(),
          std::pair<std::string_view, std::uint32_t>{label, 0}, by_name);
      if (it == labels_.begin() || std::prev(it)->first != label) {
        throw PtxError("undefined label '" + std::string(label) +
                       "' in kernel '" + kernel_.name + "'");
      }
      const std::uint32_t target = std::prev(it)->second;
      if (auto* b = std::get_if<IBra>(&code_[idx])) b->target = target;
      else if (auto* pb = std::get_if<IPBra>(&code_[idx])) {
        pb->target = target;
      }
    }
  }

  /// Insert Sync at the immediate post-dominator of every *divergent*
  /// predicated branch, and before every Exit when the reconvergence
  /// point is the program exit itself.  Branch targets are remapped so
  /// they land on the inserted Sync (the reconvergence point executes
  /// first).
  void insert_syncs() {
    const bool has_pbra = std::any_of(
        code_.begin(), code_.end(),
        [](const Instr& i) { return std::holds_alternative<IPBra>(i); });
    if (!has_pbra) return;

    const Cfg cfg(code_);
    const auto ipd = cfg.ipostdom();
    std::vector<bool> divergent;
    if (opts_.sync_policy == LowerOptions::SyncPolicy::AllBranches) {
      divergent.resize(code_.size());
      for (std::uint32_t pc = 0; pc < code_.size(); ++pc) {
        divergent[pc] = std::holds_alternative<IPBra>(code_[pc]);
      }
    } else {
      // The analysis is shared with src/analysis via ptx/defuse.h.
      divergent = ptx::divergent_pbras(code_);
    }

    std::set<std::uint32_t> sync_before;
    for (std::uint32_t pc = 0; pc < code_.size(); ++pc) {
      if (!divergent[pc]) continue;
      const std::uint32_t join = ipd[cfg.block_of(pc)];
      if (join == cfg.exit_id()) {
        // Paths reconverge only at termination: place a Sync in front
        // of every Exit so divergent warps collapse before retiring.
        for (std::uint32_t q = 0; q < code_.size(); ++q) {
          if (is_exit(code_[q])) sync_before.insert(q);
        }
      } else {
        sync_before.insert(cfg.blocks()[join].first);
      }
    }
    // Idempotence: no Sync in front of an existing Sync.
    for (auto it = sync_before.begin(); it != sync_before.end();) {
      if (is_sync(code_[*it])) it = sync_before.erase(it);
      else ++it;
    }
    if (sync_before.empty()) return;

    // Old index -> new index (counting insertions at or before it).
    std::vector<std::uint32_t> remap(code_.size() + 1);
    std::uint32_t shift = 0;
    for (std::uint32_t pc = 0; pc <= code_.size(); ++pc) {
      if (sync_before.count(pc)) ++shift;
      remap[pc] = pc + shift;
    }
    std::vector<Instr> out;
    std::vector<SourceLoc> out_locs;
    out.reserve(code_.size() + sync_before.size());
    out_locs.reserve(code_.size() + sync_before.size());
    for (std::uint32_t pc = 0; pc < code_.size(); ++pc) {
      if (sync_before.count(pc)) {
        out.push_back(ISync{});
        out_locs.push_back(SourceLoc{});  // mechanically inserted: no loc
      }
      Instr i = code_[pc];
      if (auto* b = std::get_if<IBra>(&i)) {
        // A branch targeting the join lands on the Sync itself.
        b->target = remap[b->target] - (sync_before.count(b->target) ? 1 : 0);
      } else if (auto* pb = std::get_if<IPBra>(&i)) {
        pb->target =
            remap[pb->target] - (sync_before.count(pb->target) ? 1 : 0);
      }
      out.push_back(std::move(i));
      out_locs.push_back(locs_[pc]);
    }
    code_ = std::move(out);
    locs_ = std::move(out_locs);
  }

  const AstKernel& kernel_;
  const std::unordered_map<std::string, std::uint32_t>& shared_offsets_;
  const LowerOptions& opts_;

  RegEnv env_;
  std::vector<Instr> code_;
  std::vector<SourceLoc> locs_;  // parallel to code_
  SourceLoc cur_loc_;
  std::vector<ParamSlot> params_;
  // Both view the AST's names, which outlive the lowerer.
  std::vector<std::pair<std::string_view, std::uint32_t>> labels_;
  std::vector<std::pair<std::size_t, std::string_view>> fixups_;
};

}  // namespace

const Program& LoweredModule::kernel(const std::string& name) const& {
  for (const auto& k : kernels) {
    if (k.name() == name) return k;
  }
  throw PtxError("module has no kernel '" + name + "'");
}

Program LoweredModule::kernel(const std::string& name) && {
  return static_cast<const LoweredModule&>(*this).kernel(name);
}

std::vector<SourceLoc> LoweredModule::locs_for(const Program& prg) const {
  const auto it = kernel_locs.find(prg.name());
  if (it != kernel_locs.end() && it->second.size() == prg.size()) {
    return it->second;
  }
  return std::vector<SourceLoc>(prg.size());
}

LoweredModule lower(const AstModule& m, const LowerOptions& opts) {
  LoweredModule out;
  std::uint32_t offset = 0;
  for (const auto& s : m.shared) {
    const std::uint32_t align = std::max<std::uint32_t>(1, s.align);
    offset = (offset + align - 1) & ~(align - 1);
    out.shared_offsets[s.name] = offset;
    if (s.bytes > 0xffffffffu - offset) {
      throw PtxError("shared memory layout overflows at '" + s.name + "'");
    }
    offset += s.bytes;
  }
  out.shared_bytes = offset;
  for (const auto& k : m.kernels) {
    KernelLowerer lowerer(k, out.shared_offsets, opts);
    out.kernels.push_back(lowerer.run());
    out.kernel_locs[out.kernels.back().name()] = lowerer.take_locs();
  }
  return out;
}

LoweredModule load_ptx(std::string_view source, const LowerOptions& opts) {
  return lower(parse_module(source), opts);
}

}  // namespace cac::ptx
