// Pins the PTX front end's observable output, so a rewrite of the
// lexer, parser or lowering can be checked against it byte for byte:
//
//  * a 128-bit digest of every lowered kernel's printed form plus its
//    source-location table, for every corpus source;
//  * the exact PtxError text and line:col of malformed inputs;
//  * the verdict-cache key of one lint and one check request, which is
//    computed by lowering the source.
//
// Every value below was recorded before the front end was rewritten.
// A change here is a change of the trusted translation's output, not a
// test to update casually.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "front/cache.h"
#include "programs/corpus.h"
#include "ptx/lower.h"
#include "support/hash.h"
#include "support/io.h"

namespace cac::ptx {
namespace {

/// Two independently seeded FNV-1a streams over each kernel's printed
/// form and location table, as 32 hex digits.
std::string digest(const LoweredModule& m) {
  std::string s;
  for (const Program& k : m.kernels) {
    s += to_string(k);
    s += '\x1f';
    for (const SourceLoc& l : m.locs_for(k)) {
      s += l.str();
      s += ',';
    }
    s += '\x1e';
  }
  s += std::to_string(m.shared_bytes);
  char buf[33];
  std::snprintf(buf, sizeof buf, "%016llx%016llx",
                static_cast<unsigned long long>(fnv1a(s)),
                static_cast<unsigned long long>(
                    fnv1a(s, 0x84222325cbf29ce4ull)));
  return buf;
}

std::string digest_of_source(const std::string& src) {
  try {
    return digest(load_ptx(src));
  } catch (const PtxError& e) {
    return std::string("error: ") + e.what();
  }
}

TEST(FrontEndPin, CorpusFilesLowerUnchanged) {
  const std::map<std::string, std::string> kPinned = {
      {"examples/buggy/divergent_barrier.ptx", "eb0997e8f06f4aebb8f4a74dcc03af68"},
      {"examples/buggy/global_race.ptx", "1999937927a6d83382b7906b34cb77f0"},
      {"examples/buggy/perf/coalesced_copy.ptx", "3bae50555db883f9b114459b2450aa48"},
      {"examples/buggy/perf/divergent_reduce.ptx", "b46445c5bbc15d28cbcc5ce5a5004189"},
      {"examples/buggy/perf/pitch_pow2.ptx", "d9c7e5e218d13ddc4c07c287bd277e9d"},
      {"examples/buggy/perf/strided_vecadd.ptx", "a65dd2fbbedcfaa706f400a1bf65fd42"},
      {"examples/buggy/perf/transpose_colmajor.ptx", "356faec355d727da7a37718b69f4d5d9"},
      {"examples/buggy/shared_overflow.ptx", "218209480de08e0435fb9a18e8b23927"},
      {"examples/buggy/shared_overlap.ptx", "58c50c09a8d6cbb2a8a7a21ebe156d5f"},
      {"examples/buggy/uninit_register.ptx", "42ba518c3c8e6eb311a07f6b5e04b058"},
      {"examples/equiv/guard_offbyone.ptx", "397476f07a10ec39f98902b45782727e"},
      {"examples/equiv/guard_ref.ptx", "3c6d8f85b8c0bb02267b2ce997f6fd95"},
      {"examples/equiv/mask_ref.ptx", "449fd24fe294d8cd6af69450b0413aa2"},
      {"examples/equiv/mask_wrongacc.ptx", "2f6ece31364d278b6d1346e047f2dac8"},
      {"examples/equiv/saxpy_ref.ptx", "173836f7de20718683dcf8f1bc09ff85"},
      {"examples/equiv/saxpy_reordered.ptx", "e3955ff18b4c8a52245fcf8a4186cd6d"},
      {"examples/equiv/scale_ref.ptx", "c58ccbccf83febb74b882cb6fc022462"},
      {"examples/equiv/scale_strength.ptx", "3179fc23f1128105692511c3ddcd2b10"},
      {"examples/equiv/vecadd_ref.ptx", "07331d76840f7b637de4a113574cc218"},
      {"examples/equiv/vecadd_ref4.ptx", "e59d77563498862df2b20251cf260a3e"},
      {"examples/equiv/vecadd_unroll2.ptx", "a9cbb56ad378f6bbb697a372f93decd0"},
      {"examples/equiv/vecadd_unroll4.ptx", "be9a4c5d2b5c7a93b7289ea3a8f9b75e"},
      {"tests/data/racy.ptx", "e4b28edcf0c7873b0c9500233c2d5392"},
      {"tests/data/vecadd.ptx", "ea54756e8fe51957bf6128dea16bde5c"},
  };
  std::vector<std::string> files;
  for (const char* dir : {"examples", "tests/data"}) {
    const std::filesystem::path root =
        std::filesystem::path(CAC_SOURCE_DIR) / dir;
    for (const auto& e :
         std::filesystem::recursive_directory_iterator(root)) {
      if (e.path().extension() == ".ptx") {
        files.push_back(
            std::filesystem::relative(e.path(), CAC_SOURCE_DIR).string());
      }
    }
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());
  for (const std::string& f : files) {
    const auto it = kPinned.find(f);
    const std::string got =
        digest_of_source(support::read_file(std::string(CAC_SOURCE_DIR) +
                                            "/" + f));
    EXPECT_TRUE(it != kPinned.end() && it->second == got)
        << "{\"" << f << "\", \"" << got << "\"},";
  }
}

TEST(FrontEndPin, CorpusKernelsLowerUnchanged) {
  const std::pair<const char*, std::string> kSources[] = {
      {"vector_add", programs::vector_add_ptx()},
      {"xor_cipher", programs::xor_cipher_ptx()},
      {"scan_signature", programs::scan_signature_ptx()},
      {"reduce_shared", programs::reduce_shared_ptx()},
      {"atomic_sum", programs::atomic_sum_ptx()},
      {"histogram", programs::histogram_ptx()},
      {"saxpy", programs::saxpy_ptx()},
      {"copy_v2", programs::copy_v2_ptx()},
      {"warp_reduce_shfl", programs::warp_reduce_shfl_ptx()},
      {"scan_prefix", programs::scan_prefix_ptx()},
      {"reduce_shared_nobar", programs::reduce_shared_nobar_ptx()},
      {"barrier_divergence", programs::barrier_divergence_ptx()},
      {"race_store", programs::race_store_ptx()},
      {"unrolled_85", programs::unrolled_ptx(85)},
  };
  const std::map<std::string, std::string> kPinned = {
      {"vector_add", "e2316918bed834be597df1f9d1cb5471"},
      {"xor_cipher", "2e768cc49d00295fc6d07b1d8092e142"},
      {"scan_signature", "c023725514b0b8eccd7c691f074bfad5"},
      {"reduce_shared", "0050a0868445b2c5690995137c5ef528"},
      {"atomic_sum", "e21958eee9976fc45aee8e3f039e2fd9"},
      {"histogram", "97d24712177042df1facb3b57776dcba"},
      {"saxpy", "8ce71ea04377b1ca7e8ed4ed1d1edf55"},
      {"copy_v2", "9ef9997a52a4509594159f6df368281c"},
      {"warp_reduce_shfl", "a1504150626b550a149a22551d91ff8f"},
      {"scan_prefix", "26872fa4e411ebdbb542fe7715295dce"},
      {"reduce_shared_nobar", "8891d359d0af4e3f9f9f80dedc04b0c2"},
      {"barrier_divergence", "b89816c6c1e9f90c195667da1f56cfd3"},
      {"race_store", "588cf9aad92ce31fdb673388950aac5e"},
      {"unrolled_85", "5f297a0bd720c3536f5c9171ed9bee5e"},
  };
  for (const auto& [name, src] : kSources) {
    const auto it = kPinned.find(name);
    const std::string got = digest_of_source(src);
    EXPECT_TRUE(it != kPinned.end() && it->second == got)
        << "{\"" << name << "\", \"" << got << "\"},";
  }
}

/// A kernel wrapper around a body, for errors that only lowering sees.
std::string kernel_with(const std::string& body) {
  return ".version 6.0\n.target sm_30\n.address_size 64\n"
         ".visible .entry k(\n  .param .u64 a\n)\n{\n"
         "  .reg .pred %p<2>;\n  .reg .u32 %r<4>;\n  .reg .u64 %rd<4>;\n" +
         body + "}\n";
}

TEST(FrontEndPin, MalformedInputsReportUnchanged) {
  struct Case {
    const char* name;
    std::string src;
    const char* what;
    const char* loc;
  };
  const Case kCases[] = {
      {"unterminated_block_comment", "ret;\n  /* no end\n",
       "2:3: unterminated block comment", "2:3"},
      {"unterminated_string", ".file 1 \"a.cu\n",
       "1:9: unterminated string literal", "1:9"},
      {"dot_without_name", ".version 6.0\n. reg",
       "2:1: expected directive name after '.'", "2:1"},
      {"percent_without_name", kernel_with("  mov.u32 % 1;\n"),
       "11:11: expected register name after '%'", "11:11"},
      {"hex_prefix_only", ".address_size 0x\n",
       "1:15: bad integer literal '0x'", "1:15"},
      {"hex_prefix_suffix_only", ".address_size 0xU\n",
       "1:15: bad integer literal '0xU'", "1:15"},
      {"digits_then_letters", ".address_size 12ab\n",
       "1:15: bad integer literal '12ab'", "1:15"},
      {"digit_separator", ".address_size 1_000\n",
       "1:15: bad integer literal '1_000'", "1:15"},
      {"twenty_one_digits", ".address_size 123456789012345678901\n",
       "1:15: bad integer literal '123456789012345678901'", "1:15"},
      // 2^64 - 1 lexes and wraps to -1, which the u32 check rejects.
      {"max_u64_wraps_to_minus_one", ".address_size 18446744073709551615\n",
       "1:15: address size out of range: 18446744073709551615", "1:15"},
      {"stray_backtick", ".version 6.0\n  `\n",
       "2:3: unexpected character '`'", "2:3"},
      {"line_comment_at_eof", ".visible .entry k()\n{\n  ret; // no newline",
       "3:21: unterminated kernel body", "3:21"},
      {"crlf_source",
       ".version 6.0\r\n.target sm_30\r\n.visible .entry k()\r\n{\r\n"
       "  ret;\r\n  frob.u32 %r1;\r\n}\r\n",
       "6:3: unsupported opcode 'frob.u32'", "6:3"},
      {"tab_indented",
       kernel_with("\tmov.u32\t%r1,\t%tid.x;\n\tadd.u32\t%r2,\t%r1,\t%q1;\n"),
       "12:20: '%q1' is not a declared register", "12:20"},
      {"unknown_opcode", kernel_with("  frob.u32 %r1, %r2;\n"),
       "11:3: unsupported opcode 'frob.u32'", "11:3"},
      {"undeclared_register", kernel_with("  mov.u32 %x1, 1;\n"),
       "11:11: '%x1' is not a declared register", "11:11"},
      {"undeclared_predicate", kernel_with("  @%q1 bra L;\nL:\n  ret;\n"),
       "11:3: '%q1' is not a declared predicate", "11:3"},
      {"guard_on_non_branch", kernel_with("  @%p1 add.u32 %r1, %r2, %r3;\n"),
       "11:3: predicated 'add.u32': the model supports guards on bra only",
       "11:3"},
      {"wrong_operand_count", kernel_with("  add.u32 %r1, %r2;\n"),
       "11:3: add.u32 expects 3 operands, got 2", "11:3"},
      {"undefined_label", kernel_with("  bra NOWHERE;\n"),
       "undefined label 'NOWHERE' in kernel 'k'", "<no-loc>"},
      {"unknown_parameter", kernel_with("  ld.param.u64 %rd1, [b];\n"),
       "11:22: unknown parameter 'b'", "11:22"},
      {"register_index_out_of_range",
       kernel_with("  .reg .s32 %s<70000>;\n  mov.s32 %s69999, 1;\n"),
       "12:11: register index out of range '%s69999'", "12:11"},
      {"unsupported_body_directive", kernel_with("  .local .u32 x;\n"),
       "11:3: unsupported directive in body: .local", "11:3"},
      {"unterminated_kernel_body", ".visible .entry k()\n{\n  ret;\n",
       "4:1: unterminated kernel body", "4:1"},
  };
  for (const Case& c : kCases) {
    std::string what = "<no error>";
    std::string loc = "<no error>";
    try {
      (void)load_ptx(c.src);
    } catch (const PtxError& e) {
      what = e.what();
      loc = e.loc().str();
    }
    EXPECT_EQ(what, c.what) << c.name;
    EXPECT_EQ(loc, c.loc) << c.name;
  }
}

TEST(FrontEndPin, LiteralValuesUnchanged) {
  // 2^64 - 1 is accepted and wraps to -1; one more overflows.
  const LoweredModule m =
      load_ptx(kernel_with("  mov.u64 %rd1, 18446744073709551615;\n"
                           "  mov.u64 %rd2, 0xFFFFFFFFFFFFFFFFU;\n"
                           "  mov.u32 %r1, 0x1fU;\n  ret;\n"));
  EXPECT_EQ(digest(m), "728ccd1bcdc45ddd1edf2361ddccdca0");
}

TEST(FrontEndPin, CacheKeysUnchanged) {
  front::LintRequest lint;
  lint.file = "unrolled.ptx";
  lint.source = programs::unrolled_ptx(12);
  lint.perf = true;
  EXPECT_EQ(front::cache_key(lint).hex(), "825acc1868957a2e316b80fa72e696b0");

  front::CheckRequest check;
  check.file = "vecadd.ptx";
  check.source = support::read_file(std::string(CAC_SOURCE_DIR) +
                                    "/tests/data/vecadd.ptx");
  check.launch.block = {4, 1, 1};
  check.launch.warp_size = 2;
  check.launch.global_bytes = 1024;
  check.launch.params = {{"arr_A", 0x100}, {"arr_B", 0x200},
                         {"arr_C", 0x300}, {"size", 4}};
  check.explore.partial_order_reduction = true;
  check.por_oracle = true;
  EXPECT_EQ(front::cache_key(check).hex(), "9329f89477fb9b1049013e68cd1b91fa");
}

}  // namespace
}  // namespace cac::ptx
