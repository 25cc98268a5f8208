// Robustness fuzzing of the PTX front end: random byte mutations of
// valid corpus sources must either lower successfully or raise
// PtxError/KernelError — never crash, hang, or corrupt memory.
#include <gtest/gtest.h>

#include "common/random_program.h"
#include "programs/corpus.h"
#include "ptx/lower.h"

namespace cac::ptx {
namespace {

class FrontEndFuzzTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FrontEndFuzzTest, MutatedSourcesNeverCrash) {
  cac::testing::Rng rng(GetParam());
  const std::string sources[] = {
      programs::vector_add_ptx(),    programs::reduce_shared_ptx(),
      programs::scan_signature_ptx(), programs::atomic_sum_ptx(),
      programs::unrolled_ptx(12),
  };
  // Literal, comment and line-ending edge cases of the scanner (the
  // malformed inputs of front_end_pin_test.cc), spliced in whole.
  static const char* kSplices[] = {
      "0x",   "0xU", "12ab", "1_000", "123456789012345678901",
      "18446744073709551615", "18446744073709551616", "0x0x1F",
      "`",    "/*",  "*/",   "// c",  "\r\n", "\t", "\"", "%", ".",
      "%r01",
  };
  for (const std::string& original : sources) {
    for (int round = 0; round < 24; ++round) {
      std::string src = original;
      // 1-4 random edits: overwrite, delete, insert, or splice.
      const int edits = 1 + static_cast<int>(rng.below(4));
      for (int e = 0; e < edits; ++e) {
        const std::size_t pos = rng.below(static_cast<std::uint32_t>(
            src.size()));
        static constexpr char kChars[] =
            "abcxyz0189%.;,[]{}()@!<>+- _\t\n\"";
        const char c = kChars[rng.below(sizeof kChars - 1)];
        switch (rng.below(4)) {
          case 0: src[pos] = c; break;
          case 1: src.erase(pos, 1); break;
          case 2: src.insert(pos, 1, c); break;
          default:
            src.insert(pos, kSplices[rng.below(std::size(kSplices))]);
            break;
        }
      }
      try {
        const LoweredModule m = load_ptx(src);
        // If it still lowers, programs must be structurally valid.
        for (const Program& k : m.kernels) {
          for (const ProgramIssue& issue : validate(k)) {
            (void)issue;  // structural issues are acceptable outputs
          }
        }
      } catch (const cac::PtxError&) {
        // expected for most mutations
      } catch (const cac::KernelError&) {
        // e.g. CFG of a mutilated program
      }
    }
  }
}

TEST_P(FrontEndFuzzTest, RandomTokenSoupNeverCrashes) {
  cac::testing::Rng rng(GetParam() * 977 + 5);
  static const char* kTokens[] = {
      ".visible", ".entry",  ".reg",  ".u32",  ".u64", ".pred", ".param",
      "%r1",      "%rd2",    "%p1",   "%tid.x", "add.u32", "ld.global.u32",
      "bra",      "ret",     "L1:",   "L1",    "{",    "}",     "(",
      ")",        "[",       "]",     ",",     ";",    "@",     "0",
      "42",       "0x1f",    "name",  "<",     ">",    "!",
  };
  for (int round = 0; round < 50; ++round) {
    std::string src;
    const int len = 5 + static_cast<int>(rng.below(60));
    for (int i = 0; i < len; ++i) {
      src += kTokens[rng.below(std::size(kTokens))];
      src += ' ';
    }
    try {
      (void)load_ptx(src);
    } catch (const cac::PtxError&) {
    } catch (const cac::KernelError&) {
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FrontEndFuzzTest,
                         ::testing::Range<std::uint64_t>(1, 9));

}  // namespace
}  // namespace cac::ptx
