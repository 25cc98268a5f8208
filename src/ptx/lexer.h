// Lexer for the textual PTX subset emitted by nvcc (paper Listing 1).
//
// Tokenization is deliberately simple: PTX is line-oriented assembly
// with dotted directives (`.reg`, `.u32`), register references
// (`%rd4`, `%tid.x`), integer literals, labels and a small punctuation
// set.  Comments (`//` and `/* */`) are stripped here.
//
// Tokens are views: `Token::text` points into the scanned source, so a
// token must not outlive the text it was scanned from.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "support/diag.h"

namespace cac::ptx {

enum class TokKind : std::uint8_t {
  Directive,   // ".reg", ".u32", ".visible" — text excludes the dot
  Ident,       // "bra", "BB0_2", "arr_A", "mad" (opcode pieces merged later)
  RegRef,      // "%rd4", "%p1", "%tid.x" — text excludes the '%'
  Int,         // "42", "0x1F" — value in `value`
  Punct,       // one of , ; [ ] ( ) { } : @ ! + - < > |
  End,         // end of input
};

struct Token {
  TokKind kind = TokKind::End;
  std::string_view text;    // the token's bytes in the source (see kinds)
  std::int64_t value = 0;   // for Int
  SourceLoc loc;

  [[nodiscard]] bool is_punct(char c) const {
    return kind == TokKind::Punct && text.size() == 1 && text[0] == c;
  }
  [[nodiscard]] bool is_directive(std::string_view d) const {
    return kind == TokKind::Directive && text == d;
  }
};

/// Pull tokenizer over a source text: each next() scans one token.
/// After the last token it returns End, at the end-of-input location,
/// on every call.  Throws PtxError on malformed input (unterminated
/// comment or string, stray character, bad literal) and stays at the
/// bad token, so a further next() throws the same error.
class Scanner {
 public:
  explicit Scanner(std::string_view source) : src_(source) {}

  Token next();

 private:
  [[nodiscard]] SourceLoc loc_at(std::size_t pos) const {
    return {line_, static_cast<std::uint32_t>(pos - line_start_ + 1)};
  }
  void skip_space_and_comments();
  std::size_t skip_ident(std::size_t pos) const;
  Token scan_int(std::size_t start);

  std::string_view src_;
  std::size_t pos_ = 0;
  std::size_t line_start_ = 0;  // offset of the current line's first byte
  std::uint32_t line_ = 1;
};

/// Tokenize a complete PTX source text; the last token is End.
std::vector<Token> lex(std::string_view source);

std::string to_string(TokKind k);

}  // namespace cac::ptx
