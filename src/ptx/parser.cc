#include "ptx/parser.h"

namespace cac::ptx {

namespace {

bool all_digits(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
  }
  return true;
}

/// Recursive-descent parser pulling tokens from a Scanner through a
/// one-token lookahead; no token vector is built.
class Parser {
 public:
  explicit Parser(std::string_view source)
      : scan_(source), cur_(scan_.next()) {}

  AstModule run() {
    AstModule m;
    while (!at(TokKind::End)) {
      if (at(TokKind::Directive)) {
        const std::string_view d = cur().text;
        if (d == "version") {
          advance();
          m.version = parse_version_number();
        } else if (d == "target") {
          advance();
          m.target = expect(TokKind::Ident).text;
          while (eat_punct(',')) expect(TokKind::Ident);
        } else if (d == "address_size") {
          advance();
          m.address_size = to_u32(expect(TokKind::Int), "address size");
        } else if (d == "visible" || d == "entry" || d == "func") {
          m.kernels.push_back(parse_kernel());
        } else if (d == "shared") {
          m.shared.push_back(parse_shared_decl());
        } else if (d == "file" || d == "loc" || d == "extern" ||
                   d == "weak") {
          advance();
          skip_loose_tail();
        } else {
          throw PtxError(cur().loc,
                         "unexpected directive ." + std::string(d));
        }
      } else {
        throw PtxError(cur().loc, "unexpected token at module scope: " +
                                      std::string(cur().text));
      }
    }
    return m;
  }

 private:
  // The scanner returns End forever once the input is exhausted, so
  // cur(), peek() and advance() saturate there: a structured PtxError
  // is the only way out of the parser.
  [[nodiscard]] const Token& cur() const { return cur_; }
  const Token& peek() {
    if (!have_ahead_) {
      ahead_ = scan_.next();
      have_ahead_ = true;
    }
    return ahead_;
  }
  [[nodiscard]] bool at(TokKind k) const { return cur_.kind == k; }
  [[nodiscard]] bool at_punct(char c) const { return cur_.is_punct(c); }

  Token advance() {
    const Token t = cur_;
    cur_ = have_ahead_ ? ahead_ : scan_.next();
    have_ahead_ = false;
    return t;
  }

  /// Checked narrowing for counts and sizes that land in u32 fields —
  /// an oversized literal is a diagnostic, not a silent truncation.
  static std::uint32_t to_u32(const Token& t, const char* what) {
    if (t.value < 0 || t.value > 0xffffffffll) {
      throw PtxError(t.loc, std::string(what) + " out of range: " +
                                std::string(t.text));
    }
    return static_cast<std::uint32_t>(t.value);
  }

  Token expect(TokKind k) {
    if (!at(k)) {
      throw PtxError(cur().loc, "expected " + to_string(k) + ", found '" +
                                    std::string(cur().text) + "'");
    }
    return advance();
  }

  void expect_punct(char c) {
    if (!at_punct(c)) {
      throw PtxError(cur().loc, std::string("expected '") + c +
                                    "', found '" + std::string(cur().text) +
                                    "'");
    }
    advance();
  }

  bool eat_punct(char c) {
    if (at_punct(c)) {
      advance();
      return true;
    }
    return false;
  }

  std::string parse_version_number() {
    std::string v = std::to_string(expect(TokKind::Int).value);
    // "6.0" lexes as Int 6 followed by directive "0".
    if (at(TokKind::Directive) && all_digits(cur().text)) {
      v += '.';
      v += advance().text;
    }
    return v;
  }

  // Consume the free-form tail of directives we do not model
  // (.file/.loc debug info): integers, identifiers and commas.
  void skip_loose_tail() {
    while (at(TokKind::Int) || at(TokKind::Ident) || at_punct(',')) advance();
    eat_punct(';');
  }

  AstSharedDecl parse_shared_decl() {
    AstSharedDecl d;
    expect(TokKind::Directive);  // "shared"
    std::uint32_t elem_bytes = 1;
    while (at(TokKind::Directive)) {
      const Token tok = advance();
      const std::string_view t = tok.text;
      if (t == "align") {
        d.align = to_u32(expect(TokKind::Int), "alignment");
      } else if (t.size() >= 2 && all_digits(t.substr(1))) {
        // Element width from the type suffix, e.g. ".u32" -> 4 bytes.
        // all_digits admits arbitrarily long digit runs, so parse with
        // an explicit bound instead of letting stoul throw a loc-less
        // out_of_range.
        std::uint64_t bits = 0;
        for (char c : t.substr(1)) {
          bits = bits * 10 + static_cast<std::uint64_t>(c - '0');
          if (bits > 1024) {
            throw PtxError(tok.loc,
                           "implausible type width ." + std::string(t));
          }
        }
        elem_bytes = static_cast<std::uint32_t>(bits) / 8;
      }
    }
    d.name = expect(TokKind::Ident).text;
    if (eat_punct('[')) {
      const Token n = expect(TokKind::Int);
      const std::uint64_t total =
          static_cast<std::uint64_t>(elem_bytes) * to_u32(n, "array length");
      if (total > 0xffffffffull) {
        throw PtxError(n.loc, "shared declaration too large: " +
                                  std::string(n.text));
      }
      d.bytes = static_cast<std::uint32_t>(total);
      expect_punct(']');
    } else {
      d.bytes = elem_bytes;
    }
    expect_punct(';');
    return d;
  }

  AstKernel parse_kernel() {
    AstKernel k;
    while (at(TokKind::Directive) &&
           (cur().text == "visible" || cur().text == "weak")) {
      k.visible = true;
      advance();
    }
    if (!at(TokKind::Directive) ||
        (cur().text != "entry" && cur().text != "func")) {
      throw PtxError(cur().loc, "expected .entry or .func");
    }
    advance();
    k.name = expect(TokKind::Ident).text;
    if (eat_punct('(')) {
      if (!at_punct(')')) {
        do {
          k.params.push_back(parse_param());
        } while (eat_punct(','));
      }
      expect_punct(')');
    }
    expect_punct('{');
    while (!at_punct('}')) {
      if (at(TokKind::End)) {
        throw PtxError(cur().loc, "unterminated kernel body");
      }
      parse_body_stmt(k);
    }
    expect_punct('}');
    return k;
  }

  AstParam parse_param() {
    AstParam p;
    p.loc = cur().loc;
    if (!cur().is_directive("param")) {
      throw PtxError(cur().loc, "expected .param");
    }
    advance();
    while (at(TokKind::Directive)) {
      const std::string_view t = advance().text;
      if (t == "align") {
        expect(TokKind::Int);
      } else if (t == "ptr") {
        // .ptr .global .align N — the inner space/align directives are
        // consumed by this loop.
      } else if (t == "global" || t == "shared" || t == "const" ||
                 t == "local") {
        // space qualifier of a .ptr annotation
      } else {
        p.type_suffix = t;  // the value type, e.g. "u64"
      }
    }
    if (p.type_suffix.empty()) {
      throw PtxError(p.loc, "parameter without a type");
    }
    p.name = expect(TokKind::Ident).text;
    if (eat_punct('[')) {  // array parameter; size is not modeled
      expect(TokKind::Int);
      expect_punct(']');
    }
    return p;
  }

  void parse_body_stmt(AstKernel& k) {
    if (at(TokKind::Directive)) {
      const std::string_view d = cur().text;
      if (d == "reg") {
        k.body.push_back(parse_reg_decl());
      } else if (d == "shared") {
        // Kernel-scoped shared declarations behave like module scope.
        shared_out_.push_back(parse_shared_decl());
      } else if (d == "loc" || d == "file" || d == "pragma") {
        advance();
        skip_loose_tail();
      } else {
        throw PtxError(cur().loc,
                       "unsupported directive in body: ." + std::string(d));
      }
      return;
    }
    if (at(TokKind::Ident) && peek().is_punct(':')) {
      AstLabel lbl{std::string(advance().text), cur().loc};
      expect_punct(':');
      k.body.push_back(std::move(lbl));
      return;
    }
    // Built in place: an instruction is most of a kernel body.
    parse_instr(std::get<AstInstr>(
        k.body.emplace_back(std::in_place_type<AstInstr>)));
  }

  AstRegDecl parse_reg_decl() {
    AstRegDecl d;
    d.loc = cur().loc;
    advance();  // .reg
    d.type_suffix = expect(TokKind::Directive).text;
    d.prefix = expect(TokKind::RegRef).text;
    if (eat_punct('<')) {
      d.count = to_u32(expect(TokKind::Int), "register count");
      expect_punct('>');
    }
    expect_punct(';');
    return d;
  }

  void parse_instr(AstInstr& ins) {
    ins.loc = cur().loc;
    if (eat_punct('@')) {
      AstGuard g;
      g.negated = eat_punct('!');
      g.pred = expect(TokKind::RegRef).text;
      ins.guard = std::move(g);
    }
    ins.opcode = expect(TokKind::Ident).text;
    while (at(TokKind::Directive)) {
      ins.opcode += '.';
      ins.opcode += advance().text;
    }
    if (!at_punct(';')) {
      ins.ops.reserve(4);
      do {
        parse_operand(ins.ops.emplace_back());
      } while (eat_punct(','));
    }
    expect_punct(';');
  }

  void parse_operand(AstOperand& op) {
    op.loc = cur().loc;
    if (at(TokKind::RegRef)) {
      op.kind = AstOperand::Kind::Reg;
      op.reg = advance().text;
      return;
    }
    if (at_punct('-')) {
      advance();
      op.kind = AstOperand::Kind::Imm;
      op.imm = -expect(TokKind::Int).value;
      return;
    }
    if (at(TokKind::Int)) {
      op.kind = AstOperand::Kind::Imm;
      op.imm = advance().value;
      return;
    }
    if (at(TokKind::Ident)) {
      op.kind = AstOperand::Kind::Sym;
      op.symbol = advance().text;
      return;
    }
    if (eat_punct('{')) {  // vector operand of a v2/v4 ld/st
      op.kind = AstOperand::Kind::RegVec;
      do {
        op.vec.emplace_back(expect(TokKind::RegRef).text);
      } while (eat_punct(','));
      expect_punct('}');
      return;
    }
    if (eat_punct('[')) {
      op.kind = AstOperand::Kind::Mem;
      if (at(TokKind::RegRef)) {
        op.reg = advance().text;
      } else if (at(TokKind::Int)) {
        op.imm = advance().value;  // absolute address
        expect_punct(']');
        return;
      } else {
        op.symbol = expect(TokKind::Ident).text;
      }
      if (at_punct('+') || at_punct('-')) {
        const bool neg = cur().text[0] == '-';
        advance();
        const std::int64_t v = expect(TokKind::Int).value;
        op.imm = neg ? -v : v;
      }
      expect_punct(']');
      return;
    }
    throw PtxError(cur().loc, "expected operand, found '" +
                                  std::string(cur().text) + "'");
  }

 public:
  /// Scan the rest of the source: a lexical error anywhere in it is
  /// reported before a syntax error.
  void scan_rest() {
    while (scan_.next().kind != TokKind::End) {
    }
  }

  std::vector<AstSharedDecl> shared_out_;

 private:
  Scanner scan_;
  Token cur_;
  Token ahead_;
  bool have_ahead_ = false;
};

}  // namespace

AstModule parse_module(std::string_view source) {
  Parser p(source);
  AstModule m;
  try {
    m = p.run();
  } catch (const PtxError&) {
    p.scan_rest();  // throws the first lexical error, if there is one
    throw;
  }
  for (auto& s : p.shared_out_) m.shared.push_back(std::move(s));
  return m;
}

}  // namespace cac::ptx
