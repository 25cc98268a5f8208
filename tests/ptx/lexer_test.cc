#include "ptx/lexer.h"

#include <gtest/gtest.h>

namespace cac::ptx {
namespace {

TEST(Lexer, BasicTokens) {
  const auto toks = lex(".reg .u32 %r<9>;");
  ASSERT_EQ(toks.size(), 8u);  // incl. ';' and End
  EXPECT_TRUE(toks[0].is_directive("reg"));
  EXPECT_TRUE(toks[1].is_directive("u32"));
  EXPECT_EQ(toks[2].kind, TokKind::RegRef);
  EXPECT_EQ(toks[2].text, "r");
  EXPECT_TRUE(toks[3].is_punct('<'));
  EXPECT_EQ(toks[4].kind, TokKind::Int);
  EXPECT_EQ(toks[4].value, 9);
  EXPECT_TRUE(toks[5].is_punct('>'));
}

TEST(Lexer, SpecialRegisterWithDimension) {
  const auto toks = lex("mov.u32 %r3, %ntid.x;");
  EXPECT_EQ(toks[0].kind, TokKind::Ident);
  EXPECT_EQ(toks[0].text, "mov");
  EXPECT_TRUE(toks[1].is_directive("u32"));
  EXPECT_EQ(toks[2].text, "r3");
  EXPECT_EQ(toks[4].kind, TokKind::RegRef);
  EXPECT_EQ(toks[4].text, "ntid.x");
}

TEST(Lexer, GuardAndBrackets) {
  const auto toks = lex("@%p1 bra BB0_2;");
  EXPECT_TRUE(toks[0].is_punct('@'));
  EXPECT_EQ(toks[1].text, "p1");
  EXPECT_EQ(toks[2].text, "bra");
  EXPECT_EQ(toks[3].text, "BB0_2");
}

TEST(Lexer, MemoryOperandWithOffset) {
  const auto toks = lex("ld.global.u32 %r6, [%rd8+4];");
  EXPECT_TRUE(toks[5].is_punct('['));
  EXPECT_EQ(toks[6].text, "rd8");
  EXPECT_TRUE(toks[7].is_punct('+'));
  EXPECT_EQ(toks[8].value, 4);
  EXPECT_TRUE(toks[9].is_punct(']'));
}

TEST(Lexer, HexAndSuffixedLiterals) {
  const auto toks = lex("0x1F 42U 0");
  EXPECT_EQ(toks[0].value, 0x1f);
  EXPECT_EQ(toks[1].value, 42);
  EXPECT_EQ(toks[2].value, 0);
}

TEST(Lexer, CommentsAreStripped) {
  const auto toks = lex("ret; // trailing\n/* block\ncomment */ exit;");
  ASSERT_EQ(toks.size(), 5u);
  EXPECT_EQ(toks[0].text, "ret");
  EXPECT_EQ(toks[2].text, "exit");
}

TEST(Lexer, TracksLineNumbers) {
  const auto toks = lex("a;\nb;\n  c;");
  EXPECT_EQ(toks[0].loc.line, 1u);
  EXPECT_EQ(toks[2].loc.line, 2u);
  EXPECT_EQ(toks[4].loc.line, 3u);
  EXPECT_EQ(toks[4].loc.column, 3u);
}

TEST(Lexer, Errors) {
  EXPECT_THROW(lex("`"), cac::PtxError);
  EXPECT_THROW(lex("/* unterminated"), cac::PtxError);
  EXPECT_THROW(lex("% 1"), cac::PtxError);
  EXPECT_THROW(lex("0xzz"), cac::PtxError);
}

TEST(Lexer, LiteralsDecodeInPlace) {
  const auto toks = lex("0XfF 0u 18446744073709551615 007");
  EXPECT_EQ(toks[0].value, 0xff);
  EXPECT_EQ(toks[0].text, "0XfF");
  EXPECT_EQ(toks[1].value, 0);
  EXPECT_EQ(toks[2].value, -1);  // 2^64 - 1 wraps
  EXPECT_EQ(toks[3].value, 7);
  // One 0x prefix only; overflow is an error, not a wrap.
  EXPECT_THROW(lex("0x0x1F"), cac::PtxError);
  EXPECT_THROW(lex("0x10000000000000000"), cac::PtxError);
  EXPECT_THROW(lex("18446744073709551616"), cac::PtxError);
}

TEST(Lexer, TokensViewTheSource) {
  const std::string src = "ld.global.u32 %r6, [%rd8+4];";
  for (const Token& t : lex(src)) {
    if (t.kind == TokKind::End) continue;
    EXPECT_GE(t.text.data(), src.data());
    EXPECT_LE(t.text.data() + t.text.size(), src.data() + src.size());
  }
}

TEST(Lexer, ScannerRepeatsAnErrorAndEndsAtEnd) {
  Scanner s("ret `");
  EXPECT_EQ(s.next().text, "ret");
  EXPECT_THROW(s.next(), cac::PtxError);
  EXPECT_THROW(s.next(), cac::PtxError);  // still at the bad byte
  Scanner t("ret;\n");
  (void)t.next();
  (void)t.next();
  const Token end = t.next();
  EXPECT_EQ(end.kind, TokKind::End);
  EXPECT_EQ(end.loc, (SourceLoc{2, 1}));
  EXPECT_EQ(t.next().kind, TokKind::End);
}

TEST(Lexer, StringLiteralBecomesIdent) {
  const auto toks = lex("\"file.cu\"");
  EXPECT_EQ(toks[0].kind, TokKind::Ident);
  EXPECT_EQ(toks[0].text, "file.cu");
}

TEST(Lexer, EmptyInput) {
  const auto toks = lex("");
  ASSERT_EQ(toks.size(), 1u);
  EXPECT_EQ(toks[0].kind, TokKind::End);
}

}  // namespace
}  // namespace cac::ptx
