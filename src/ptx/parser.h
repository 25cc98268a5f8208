// Parser for the textual PTX subset: builds a faithful AST of the
// source without interpreting opcodes.  Lowering to the core model
// (the paper's Listing 1 -> Listing 2 translation) lives in lower.h.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "ptx/lexer.h"

namespace cac::ptx {

/// `.reg .u32 %r<9>;` declares registers %r0..%r8 of type u32.
struct AstRegDecl {
  std::string type_suffix;  // "u32", "u64", "pred", ...
  std::string prefix;       // "r", "rd", "p", ...
  std::uint32_t count = 0;  // 0 when a single register was declared
  SourceLoc loc;
};

struct AstLabel {
  std::string name;
  SourceLoc loc;
};

/// One parsed operand.  Register-vs-special-register and
/// symbol-vs-label disambiguation happens during lowering.
struct AstOperand {
  enum class Kind : std::uint8_t { Reg, Imm, Sym, Mem, RegVec };
  Kind kind = Kind::Imm;
  std::string reg;                 // Reg / Mem-with-register-base
  std::int64_t imm = 0;            // Imm / Mem offset
  std::string symbol;              // Sym / Mem-with-symbol-base
  std::vector<std::string> vec;    // RegVec: {%r1,%r2,...}
  SourceLoc loc;
};

/// `@%p1` / `@!%p1` instruction guard.
struct AstGuard {
  std::string pred;
  bool negated = false;
};

struct AstInstr {
  std::optional<AstGuard> guard;
  std::string opcode;  // full dotted opcode, e.g. "ld.global.u32"
  std::vector<AstOperand> ops;
  SourceLoc loc;
};

using AstStmt = std::variant<AstRegDecl, AstLabel, AstInstr>;

struct AstParam {
  std::string type_suffix;  // "u32", "u64", ...
  std::string name;
  SourceLoc loc;
};

struct AstKernel {
  std::string name;
  bool visible = false;
  std::vector<AstParam> params;
  std::vector<AstStmt> body;
};

/// A shared-memory declaration: `.shared .align 4 .b8 buf[128];`
struct AstSharedDecl {
  std::string name;
  std::uint32_t bytes = 0;
  std::uint32_t align = 1;
};

struct AstModule {
  std::string version;
  std::string target;
  std::uint32_t address_size = 64;
  std::vector<AstSharedDecl> shared;
  std::vector<AstKernel> kernels;
};

/// Parse a complete PTX module; the result owns its strings.  Throws
/// PtxError on lexical or syntax errors, a lexical error anywhere in
/// the source before a syntax error.
AstModule parse_module(std::string_view source);

}  // namespace cac::ptx
