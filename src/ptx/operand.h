// Registers, special registers, predicates and operands (paper Table I).
//
//   reg      : {UI, SI} x N x N             -- class, width, index
//   sreg     : {T, B, NT, NB} x {Dx,Dy,Dz}  -- tid / ctaid / ntid / nctaid
//   op       : reg + sreg + Z + reg x Z     -- the four operand kinds
#pragma once

#include <charconv>
#include <cstdint>
#include <string>
#include <variant>

#include "ptx/dtype.h"

namespace cac::ptx {

/// A general-purpose register.  Identified (as in the paper) by its
/// type class, bit width, and index; `(UI 32, 5)` and `(UI 64, 5)` are
/// distinct registers, matching PTX's `%r5` vs `%rd5`.
struct Reg {
  TypeClass cls = TypeClass::UI;  // UI or SI only
  std::uint8_t width = 32;
  std::uint16_t index = 0;

  friend bool operator==(const Reg&, const Reg&) = default;
  friend auto operator<=>(const Reg&, const Reg&) = default;

  /// Packed key used by the register file map.
  [[nodiscard]] std::uint32_t key() const {
    return (static_cast<std::uint32_t>(cls) << 24) |
           (static_cast<std::uint32_t>(width) << 16) | index;
  }
};

/// A predicate register (maps to `%p<n>`); the predicate state phi maps
/// indices to booleans.
struct Pred {
  std::uint16_t index = 0;
  friend bool operator==(const Pred&, const Pred&) = default;
};

/// Dimension selector of a 3-d special register (paper `dim`).
enum class Dim : std::uint8_t { X = 0, Y = 1, Z = 2 };

/// The four predominant special registers (paper `sreg`):
///   Tid    = %tid     (T,  thread index within the block)
///   CtaId  = %ctaid   (B,  block index within the grid)
///   NTid   = %ntid    (NT, block size)
///   NCtaId = %nctaid  (NB, grid size)
enum class SregKind : std::uint8_t { Tid = 0, CtaId = 1, NTid = 2, NCtaId = 3 };

struct Sreg {
  SregKind kind = SregKind::Tid;
  Dim dim = Dim::X;
  friend bool operator==(const Sreg&, const Sreg&) = default;
};

/// Immediate operand.  Stored as a signed 64-bit literal; the executing
/// instruction interprets the low bits at its own width.
struct Imm {
  std::int64_t value = 0;
  friend bool operator==(const Imm&, const Imm&) = default;
};

/// Register-plus-immediate addressing operand, e.g. `[%rd4+8]`.
struct RegImm {
  Reg reg;
  std::int64_t offset = 0;
  friend bool operator==(const RegImm&, const RegImm&) = default;
};

/// An instruction operand: one of the four kinds of paper Table I.
using Operand = std::variant<Reg, Sreg, Imm, RegImm>;

/// Append the decimal form of an integer (the bytes std::to_string
/// writes) without a temporary string.
template <class Int>
void append_decimal(std::string& out, Int v) {
  char buf[24];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}

// The appending printer: each overload writes the text `to_string`
// returns onto the end of `out`.  The instruction and program printers
// (instr.h, program.h) are built from these, so a whole kernel prints
// into one buffer.
void append_text(std::string& out, const Reg& r);
void append_text(std::string& out, const Pred& p);
void append_text(std::string& out, const Sreg& s);
void append_text(std::string& out, const Operand& op);

std::string to_string(const Reg& r);
std::string to_string(const Pred& p);
std::string to_string(const Sreg& s);
std::string to_string(const Operand& op);

/// Shorthand constructors used by tests and hand-built programs; these
/// mirror the `_r1 : op := Reg r1` wrappers of the paper's Listing 2.
inline Operand op_reg(Reg r) { return Operand{r}; }
inline Operand op_sreg(SregKind k, Dim d) { return Operand{Sreg{k, d}}; }
inline Operand op_imm(std::int64_t v) { return Operand{Imm{v}}; }
inline Operand op_regimm(Reg r, std::int64_t off) {
  return Operand{RegImm{r, off}};
}

}  // namespace cac::ptx
