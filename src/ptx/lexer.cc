#include "ptx/lexer.h"

#include <algorithm>
#include <array>

namespace cac::ptx {

namespace {

// Character classes of the C locale's isspace/isalpha/isdigit, plus the
// punctuation set; every byte outside ASCII is in no class.
enum : std::uint8_t {
  kSpace = 1,
  kIdentStart = 2,  // [A-Za-z_$]
  kDigit = 4,       // [0-9]
  kPunct = 8,       // , ; [ ] ( ) { } : @ ! + - < > |
  kIdentChar = kIdentStart | kDigit,
};

constexpr std::array<std::uint8_t, 256> kClass = [] {
  std::array<std::uint8_t, 256> t{};
  for (unsigned char c : std::string_view(" \t\n\v\f\r")) t[c] = kSpace;
  for (int c = 'a'; c <= 'z'; ++c) t[c] = kIdentStart;
  for (int c = 'A'; c <= 'Z'; ++c) t[c] = kIdentStart;
  t['_'] = t['$'] = kIdentStart;
  for (int c = '0'; c <= '9'; ++c) t[c] = kDigit;
  for (unsigned char c : std::string_view(",;[](){}:@!+-<>|")) t[c] = kPunct;
  return t;
}();

// Value of a hex digit, or 0xff.
constexpr std::array<std::uint8_t, 256> kDigitValue = [] {
  std::array<std::uint8_t, 256> t{};
  t.fill(0xff);
  for (int c = '0'; c <= '9'; ++c) t[c] = static_cast<std::uint8_t>(c - '0');
  for (int c = 0; c < 6; ++c) {
    t['a' + c] = t['A' + c] = static_cast<std::uint8_t>(10 + c);
  }
  return t;
}();

}  // namespace

std::size_t Scanner::skip_ident(std::size_t pos) const {
  while (pos < src_.size() &&
         (kClass[static_cast<unsigned char>(src_[pos])] & kIdentChar)) {
    ++pos;
  }
  return pos;
}

void Scanner::skip_space_and_comments() {
  const std::size_t n = src_.size();
  while (pos_ < n) {
    const char c = src_[pos_];
    if (c == '\n') {
      ++line_;
      line_start_ = ++pos_;
    } else if (kClass[static_cast<unsigned char>(c)] & kSpace) {
      ++pos_;
    } else if (c == '/' && pos_ + 1 < n && src_[pos_ + 1] == '/') {
      pos_ = std::min(src_.find('\n', pos_ + 2), n);
    } else if (c == '/' && pos_ + 1 < n && src_[pos_ + 1] == '*') {
      const std::size_t end = src_.find("*/", pos_ + 2);
      if (end == std::string_view::npos) {
        throw PtxError(loc_at(pos_), "unterminated block comment");
      }
      for (std::size_t i = pos_ + 2; i < end; ++i) {
        if (src_[i] == '\n') {
          ++line_;
          line_start_ = i + 1;
        }
      }
      pos_ = end + 2;
    } else {
      return;
    }
  }
}

Token Scanner::scan_int(std::size_t start) {
  const SourceLoc at = loc_at(start);
  const std::size_t end = skip_ident(start);
  const std::string_view lit = src_.substr(start, end - start);
  std::string_view digits = lit;
  unsigned base = 10;
  if (lit.size() > 2 && lit[0] == '0' && (lit[1] == 'x' || lit[1] == 'X')) {
    base = 16;
    digits.remove_prefix(2);
  }
  // PTX allows a 'U' suffix on literals.
  if (!digits.empty() && (digits.back() == 'U' || digits.back() == 'u')) {
    digits.remove_suffix(1);
  }
  bool ok = !digits.empty();
  std::uint64_t v = 0;
  for (const char ch : digits) {
    const unsigned d = kDigitValue[static_cast<unsigned char>(ch)];
    if (d >= base || __builtin_mul_overflow(v, base, &v) ||
        __builtin_add_overflow(v, d, &v)) {
      ok = false;
      break;
    }
  }
  if (!ok) {
    throw PtxError(at, "bad integer literal '" + std::string(lit) + "'");
  }
  pos_ = end;
  // Values up to 2^64 - 1 are accepted; the top half wraps negative.
  return {TokKind::Int, lit, static_cast<std::int64_t>(v), at};
}

Token Scanner::next() {
  skip_space_and_comments();
  const std::size_t n = src_.size();
  if (pos_ >= n) return {TokKind::End, {}, 0, loc_at(pos_)};
  const std::size_t start = pos_;
  const SourceLoc at = loc_at(start);
  const char c = src_[start];
  const auto class_at = [&](std::size_t i) -> std::uint8_t {
    return i < n ? kClass[static_cast<unsigned char>(src_[i])] : 0;
  };

  if (c == '.') {
    if (!(class_at(start + 1) & kIdentChar)) {
      throw PtxError(at, "expected directive name after '.'");
    }
    pos_ = skip_ident(start + 1);
    return {TokKind::Directive, src_.substr(start + 1, pos_ - start - 1), 0,
            at};
  }

  if (c == '%') {
    if (!(class_at(start + 1) & kIdentStart)) {
      throw PtxError(at, "expected register name after '%'");
    }
    pos_ = skip_ident(start + 1);
    // Special registers carry a dimension suffix: %tid.x etc.
    if (pos_ < n && src_[pos_] == '.' && (class_at(pos_ + 1) & kIdentStart)) {
      pos_ = skip_ident(pos_ + 1);
    }
    return {TokKind::RegRef, src_.substr(start + 1, pos_ - start - 1), 0, at};
  }

  if (c == '"') {  // file names in .file debug directives
    const std::size_t close = src_.find('"', start + 1);
    if (close == std::string_view::npos) {
      throw PtxError(at, "unterminated string literal");
    }
    for (std::size_t i = start + 1; i < close; ++i) {
      if (src_[i] == '\n') {
        ++line_;
        line_start_ = i + 1;
      }
    }
    pos_ = close + 1;
    return {TokKind::Ident, src_.substr(start + 1, close - start - 1), 0, at};
  }

  const std::uint8_t cls = kClass[static_cast<unsigned char>(c)];
  if (cls & kDigit) return scan_int(start);
  if (cls & kIdentStart) {
    pos_ = skip_ident(start);
    return {TokKind::Ident, src_.substr(start, pos_ - start), 0, at};
  }
  if (cls & kPunct) {
    pos_ = start + 1;
    return {TokKind::Punct, src_.substr(start, 1), 0, at};
  }
  throw PtxError(at, std::string("unexpected character '") + c + "'");
}

std::vector<Token> lex(std::string_view source) {
  Scanner scanner(source);
  std::vector<Token> out;
  do {
    out.push_back(scanner.next());
  } while (out.back().kind != TokKind::End);
  return out;
}

std::string to_string(TokKind k) {
  switch (k) {
    case TokKind::Directive: return "directive";
    case TokKind::Ident: return "identifier";
    case TokKind::RegRef: return "register";
    case TokKind::Int: return "integer";
    case TokKind::Punct: return "punctuation";
    case TokKind::End: return "end of input";
  }
  return "?";
}

}  // namespace cac::ptx
