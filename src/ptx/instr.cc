#include "ptx/instr.h"

namespace cac::ptx {

bool is_bar(const Instr& i) { return std::holds_alternative<IBar>(i); }
bool is_exit(const Instr& i) { return std::holds_alternative<IExit>(i); }
bool is_sync(const Instr& i) { return std::holds_alternative<ISync>(i); }

namespace {

const char* op_name(const BinOp op) {
  switch (op) {
    case BinOp::Add: return "add";
    case BinOp::Sub: return "sub";
    case BinOp::Mul: return "mul.lo";
    case BinOp::MulHi: return "mul.hi";
    case BinOp::MulWide: return "mul.wide";
    case BinOp::Div: return "div";
    case BinOp::Rem: return "rem";
    case BinOp::Min: return "min";
    case BinOp::Max: return "max";
    case BinOp::And: return "and";
    case BinOp::Or: return "or";
    case BinOp::Xor: return "xor";
    case BinOp::Shl: return "shl";
    case BinOp::Shr: return "shr";
  }
  return "?";
}

const char* op_name(const TerOp op) {
  switch (op) {
    case TerOp::MadLo: return "mad.lo";
    case TerOp::MadWide: return "mad.wide";
  }
  return "?";
}

const char* op_name(const UnOp op) {
  switch (op) {
    case UnOp::Not: return "not";
    case UnOp::Neg: return "neg";
    case UnOp::Cvt: return "cvt";
    case UnOp::Abs: return "abs";
    case UnOp::Popc: return "popc";
    case UnOp::Clz: return "clz";
    case UnOp::Brev: return "brev";
  }
  return "?";
}

const char* op_name(const CmpOp op) {
  switch (op) {
    case CmpOp::Eq: return "eq";
    case CmpOp::Ne: return "ne";
    case CmpOp::Lt: return "lt";
    case CmpOp::Le: return "le";
    case CmpOp::Gt: return "gt";
    case CmpOp::Ge: return "ge";
  }
  return "?";
}

const char* op_name(const AtomOp op) {
  switch (op) {
    case AtomOp::Add: return "atom.add";
    case AtomOp::Exch: return "atom.exch";
    case AtomOp::Min: return "atom.min";
    case AtomOp::Max: return "atom.max";
    case AtomOp::And: return "atom.and";
    case AtomOp::Or: return "atom.or";
    case AtomOp::Xor: return "atom.xor";
    case AtomOp::Cas: return "atom.cas";
  }
  return "?";
}

/// Appends each instruction's text in place: the one printer behind
/// `to_string(Instr)`, `to_string(Program)` and the cache key.
struct Printer {
  std::string& out;

  /// A type suffix such as `.u32`.
  struct Suffix {
    const DType& t;
  };

  void put1(const char* s) const { out += s; }
  void put1(const std::string& s) const { out += s; }
  void put1(char c) const { out += c; }
  void put1(std::uint32_t v) const { append_decimal(out, v); }
  void put1(const Reg& r) const { append_text(out, r); }
  void put1(const Pred& p) const { append_text(out, p); }
  void put1(const Operand& op) const { append_text(out, op); }
  void put1(Suffix s) const {
    const TypeClass c = s.t.cls;
    put('.', c == TypeClass::UI ? 'u' : c == TypeClass::SI ? 's' : 'b',
        std::uint32_t{s.t.width});
  }
  template <class... Ts>
  void put(const Ts&... xs) const {
    (put1(xs), ...);
  }

  void operator()(const INop&) const { put("nop"); }
  void operator()(const IBop& i) const {
    put(op_name(i.op), Suffix{i.type}, ' ', i.dst, ", ", i.a, ", ", i.b);
  }
  void operator()(const ITop& i) const {
    put(op_name(i.op), Suffix{i.type}, ' ', i.dst, ", ", i.a, ", ", i.b,
        ", ", i.c);
  }
  void operator()(const IUop& i) const {
    put(op_name(i.op), Suffix{i.type}, ' ', i.dst, ", ", i.a);
  }
  void operator()(const IMov& i) const { put("mov ", i.dst, ", ", i.src); }
  void operator()(const ILd& i) const {
    put("ld.", to_string(i.space), Suffix{i.type}, ' ', i.dst, ", [", i.addr,
        ']');
  }
  void operator()(const ISt& i) const {
    put("st.", to_string(i.space), Suffix{i.type}, " [", i.addr, "], ",
        i.src);
  }
  void operator()(const IBra& i) const { put("bra ", i.target); }
  void operator()(const ISetp& i) const {
    put("setp.", op_name(i.cmp), Suffix{i.type}, ' ', i.dst, ", ", i.a, ", ",
        i.b);
  }
  void operator()(const IPBra& i) const {
    put(i.negated ? "@!" : "@", i.pred, " bra ", i.target);
  }
  void operator()(const ISelp& i) const {
    put("selp", Suffix{i.type}, ' ', i.dst, ", ", i.a, ", ", i.b, ", ",
        i.pred);
  }
  void operator()(const ISync&) const { put("sync"); }
  void operator()(const IBar&) const { put("bar.sync 0"); }
  void operator()(const IExit&) const { put("exit"); }
  void operator()(const IVote& i) const {
    switch (i.mode) {
      case VoteMode::All: return put("vote.all.pred ", i.dst, ", ", i.src);
      case VoteMode::Any: return put("vote.any.pred ", i.dst, ", ", i.src);
      case VoteMode::Ballot:
        return put("vote.ballot.b32 ", i.dst_ballot, ", ", i.src);
    }
    put("vote?");
  }
  void operator()(const IShfl& i) const {
    const char* m = "";
    switch (i.mode) {
      case ShflMode::Idx: m = "idx"; break;
      case ShflMode::Up: m = "up"; break;
      case ShflMode::Down: m = "down"; break;
      case ShflMode::Bfly: m = "bfly"; break;
    }
    put("shfl.", m, Suffix{i.type}, ' ', i.dst, ", ", i.src, ", ", i.lane);
  }
  void operator()(const IAtom& i) const {
    put(op_name(i.op), '.', to_string(i.space), Suffix{i.type}, ' ', i.dst,
        ", [", i.addr, "], ", i.b);
    if (i.op == AtomOp::Cas) put(", ", i.c);
  }
};

}  // namespace

void append_text(std::string& out, const Instr& i) {
  std::visit(Printer{out}, i);
}

std::string to_string(const Instr& i) {
  std::string s;
  append_text(s, i);
  return s;
}

}  // namespace cac::ptx
