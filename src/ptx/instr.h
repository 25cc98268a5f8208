// The core instruction set of the formal model (paper §III-6, Fig. 1).
//
// Instructions are drawn from the PTX specification and carry their
// operand types, so a compiled PTX kernel can be translated into this
// representation "with no semantic gap" (paper §III-6).  The eleven
// derivation-rule shapes of Fig. 1 map onto the variants below:
//
//   nop  -> Nop            bop -> Bop          top  -> Top
//   mov  -> Mov            ld  -> Ld           st   -> St
//   bra  -> Bra            setp-> Setp         pbra -> PBra
//   sync -> Sync           (div is a rule about divergent warps, not an
//                            instruction)
//
// Bar and Exit drive the block/grid rules of Fig. 3.  Uop, Selp and
// Atom are conservative extensions: Uop/Selp desugar common nvcc output,
// and Atom models the "excepting atomic instructions" footnote of the
// paper's memory discussion (§III-2).
#pragma once

#include <cstdint>
#include <string>
#include <variant>

#include "ptx/operand.h"

namespace cac::ptx {

/// Binary ALU operations (the paper's `Bop op`).  Signed/unsigned
/// distinctions are carried by the instruction's DType.
enum class BinOp : std::uint8_t {
  Add, Sub, Mul,      // low half of the product, PTX mul.lo
  MulHi,              // high half, PTX mul.hi
  MulWide,            // full 2w-bit product, PTX mul.wide
  Div, Rem, Min, Max,
  And, Or, Xor, Shl, Shr,
};

/// Ternary ALU operations (the paper's `Top op`).
enum class TerOp : std::uint8_t {
  MadLo,    // d = a*b + c, low half (PTX mad.lo)
  MadWide,  // d = a*b + c at 2w bits (PTX mad.wide)
};

/// Unary operations (extension; nvcc emits these frequently).
enum class UnOp : std::uint8_t { Not, Neg, Cvt, Abs, Popc, Clz, Brev };

/// setp comparison operators.
enum class CmpOp : std::uint8_t { Eq, Ne, Lt, Le, Gt, Ge };

/// Atomic read-modify-write operations (extension, paper §III-2).
enum class AtomOp : std::uint8_t { Add, Exch, Min, Max, And, Or, Xor, Cas };

struct INop {
  friend bool operator==(const INop&, const INop&) = default;
};

struct IBop {
  BinOp op = BinOp::Add;
  DType type;  // operand interpretation width/signedness
  Reg dst;
  Operand a, b;
  friend bool operator==(const IBop&, const IBop&) = default;
};

struct ITop {
  TerOp op = TerOp::MadLo;
  DType type;
  Reg dst;
  Operand a, b, c;
  friend bool operator==(const ITop&, const ITop&) = default;
};

struct IUop {
  UnOp op = UnOp::Not;
  DType type;
  Reg dst;
  Operand a;
  friend bool operator==(const IUop&, const IUop&) = default;
};

struct IMov {
  Reg dst;
  Operand src;
  friend bool operator==(const IMov&, const IMov&) = default;
};

struct ILd {
  Space space = Space::Global;
  DType type;   // element type loaded
  Reg dst;
  Operand addr;
  friend bool operator==(const ILd&, const ILd&) = default;
};

struct ISt {
  Space space = Space::Global;
  DType type;   // element type stored
  Operand addr;
  Reg src;
  friend bool operator==(const ISt&, const ISt&) = default;
};

struct IBra {
  std::uint32_t target = 0;
  friend bool operator==(const IBra&, const IBra&) = default;
};

struct ISetp {
  CmpOp cmp = CmpOp::Eq;
  DType type;
  Pred dst;
  Operand a, b;
  friend bool operator==(const ISetp&, const ISetp&) = default;
};

/// Predicated branch — the only predicated instruction of the model
/// (paper §III-3 introduces it as a pseudo-instruction distinguishing
/// predicated from unconditional branches).
struct IPBra {
  Pred pred;
  bool negated = false;  // `@!%p` form
  std::uint32_t target = 0;
  friend bool operator==(const IPBra&, const IPBra&) = default;
};

/// selp: d = pred ? a : b (extension).
struct ISelp {
  DType type;
  Reg dst;
  Operand a, b;
  Pred pred;
  friend bool operator==(const ISelp&, const ISelp&) = default;
};

/// Warp reconvergence point (paper Fig. 2's `sync`).
struct ISync {
  friend bool operator==(const ISync&, const ISync&) = default;
};

/// Block-wide memory barrier, PTX `bar.sync` (paper Fig. 3 lift-bar).
struct IBar {
  friend bool operator==(const IBar&, const IBar&) = default;
};

/// Kernel termination, PTX `ret`/`exit`.
struct IExit {
  friend bool operator==(const IExit&, const IExit&) = default;
};

/// Atomic read-modify-write on memory (extension).  dst receives the
/// old value; the store commits immediately with a *valid* bit, which
/// is the paper's "excepting atomic instructions" carve-out.
struct IAtom {
  AtomOp op = AtomOp::Add;
  Space space = Space::Global;
  DType type;
  Reg dst;
  Operand addr;
  Operand b;
  Operand c;  // only used by Cas (compare value in b, new value in c)
  friend bool operator==(const IAtom&, const IAtom&) = default;
};

/// Warp-vote modes (extension): reduce the warp's predicate values.
enum class VoteMode : std::uint8_t { All, Any, Ballot };

/// vote.all/.any write a predicate; vote.ballot writes a lane bitmask
/// into a 32-bit register.  Requires a uniform (reconverged) warp.
struct IVote {
  VoteMode mode = VoteMode::Any;
  Pred dst;        // All/Any
  Reg dst_ballot;  // Ballot
  Pred src;
  friend bool operator==(const IVote&, const IVote&) = default;
};

/// Warp-shuffle modes (extension): exchange register values between
/// lanes of a uniform warp without memory.
enum class ShflMode : std::uint8_t { Idx, Up, Down, Bfly };

struct IShfl {
  ShflMode mode = ShflMode::Bfly;
  DType type;      // 32-bit data
  Reg dst;
  Reg src;
  Operand lane;    // source lane (Idx) or delta/xor-mask (Up/Down/Bfly)
  friend bool operator==(const IShfl&, const IShfl&) = default;
};

using Instr = std::variant<INop, IBop, ITop, IUop, IMov, ILd, ISt, IBra,
                           ISetp, IPBra, ISelp, ISync, IBar, IExit, IAtom,
                           IVote, IShfl>;

/// Classification helpers used by the block/grid rules (Fig. 3), which
/// dispatch on whether a warp's next instruction is Bar or Exit.
bool is_bar(const Instr& i);
bool is_exit(const Instr& i);
bool is_sync(const Instr& i);

/// Append the text `to_string(i)` returns to `out` (see operand.h).
void append_text(std::string& out, const Instr& i);
std::string to_string(const Instr& i);

}  // namespace cac::ptx
