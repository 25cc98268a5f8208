#include "workloads.h"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "front/front.h"
#include "programs/corpus.h"
#include "ptx/emit.h"

namespace cacbench {

using cac::front::CheckRequest;
using cac::front::EquivRequest;
using cac::front::LintRequest;
using cac::front::Request;

std::uint64_t Rng::next() {
  std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

std::string read_file(const std::string& root, const std::string& rel) {
  std::ifstream in(root + "/" + rel, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + root + "/" + rel);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

template <typename T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(static_cast<std::uint32_t>(i))]);
  }
}

// --- check / validate templates -------------------------------------------
//
// Every proved template carries a postcondition computed here by hand
// from the kernel's documented contract (src/programs/corpus.h), so a
// "proved" verdict certifies the output values on every schedule.

enum class Por : std::uint8_t { None, Por, Oracle };

struct Geo {
  std::uint32_t grid = 1;
  std::uint32_t block = 4;
  std::uint32_t warp = 4;
};

constexpr std::uint64_t kA = 0x100;  // first input array
constexpr std::uint64_t kB = 0x200;  // second input array
constexpr std::uint64_t kC = 0x300;  // output array

CheckRequest base_check(const std::string& file, std::string source, Geo g,
                        Por por, std::uint32_t threads) {
  CheckRequest r;
  r.file = file;
  r.source = std::move(source);
  r.launch.grid = {g.grid, 1, 1};
  r.launch.block = {g.block, 1, 1};
  r.launch.warp_size = g.warp;
  r.launch.global_bytes = 1024;
  r.launch.shared_bytes = 256;
  r.explore.num_threads = threads;
  r.explore.partial_order_reduction = por != Por::None;
  r.por_oracle = por == Por::Oracle;
  return r;
}

std::string geo_name(const char* kernel, Geo g, Por por) {
  std::string n = std::string(kernel) + "-g" + std::to_string(g.grid) + "b" +
                  std::to_string(g.block) + "w" + std::to_string(g.warp);
  if (por == Por::Por) n += "-por";
  if (por == Por::Oracle) n += "-oracle";
  return n;
}

Job proved(const std::string& name, CheckRequest r, bool validate) {
  Job j;
  j.tmpl = validate ? name + "-validate" : name;
  j.kind = validate ? Kind::Validate : Kind::Check;
  r.full_validate = validate;
  j.request = std::move(r);
  j.answer.verdict = validate ? "validated" : "proved";
  j.answer.exit_code = 0;
  return j;
}

Job refuted(const std::string& name, CheckRequest r) {
  Job j;
  j.tmpl = name;
  j.kind = Kind::Check;
  j.request = std::move(r);
  j.answer.verdict = "refuted";
  j.answer.exit_code = 1;
  j.refutation = true;
  return j;
}

/// Element-wise kernels over `size` elements: C = A + B (vector sum,
/// the paper's Listing 1), C = A ^ B (keystream XOR), Y = a*X + Y.
enum class Elementwise : std::uint8_t { Vecadd, Xor, Saxpy };

Job elementwise(Elementwise k, Geo g, std::uint32_t size, Por por,
                std::uint32_t threads, Rng& rng, bool validate = false) {
  const char* name = k == Elementwise::Vecadd ? "vecadd"
                     : k == Elementwise::Xor  ? "xor"
                                              : "saxpy";
  std::string src = k == Elementwise::Vecadd ? cac::programs::vector_add_ptx()
                    : k == Elementwise::Xor  ? cac::programs::xor_cipher_ptx()
                                             : cac::programs::saxpy_ptx();
  CheckRequest r = base_check(std::string(name) + ".ptx", std::move(src), g,
                              por, threads);
  const std::uint32_t a = static_cast<std::uint32_t>(rng.next()) | 1u;
  if (k == Elementwise::Saxpy) {
    r.launch.params = {{"arr_X", kA}, {"arr_Y", kB}, {"a", a}, {"size", size}};
  } else {
    r.launch.params = {
        {"arr_A", kA}, {"arr_B", kB}, {"arr_C", kC}, {"size", size}};
  }
  for (std::uint32_t i = 0; i < size; ++i) {
    const auto x = static_cast<std::uint32_t>(rng.next());
    const auto y = static_cast<std::uint32_t>(rng.next());
    r.launch.inits.emplace_back(kA + 4 * i, x);
    r.launch.inits.emplace_back(kB + 4 * i, y);
    switch (k) {
      case Elementwise::Vecadd: r.expects.emplace_back(kC + 4 * i, x + y); break;
      case Elementwise::Xor: r.expects.emplace_back(kC + 4 * i, x ^ y); break;
      case Elementwise::Saxpy: r.expects.emplace_back(kB + 4 * i, a * x + y); break;
    }
  }
  // Each thread writes only its own element: one final state.
  r.require_independence = true;
  return proved(geo_name(name, g, por) + "-n" + std::to_string(size),
                std::move(r), validate);
}

/// Block tree reduction (out[0] = sum A[0..ntid)) or Hillis-Steele
/// inclusive scan (out[i] = A[0] + ... + A[i]) through Shared memory.
Job block_collective(bool scan, Geo g, Por por, std::uint32_t threads,
                     Rng& rng, bool validate = false) {
  const char* name = scan ? "scan" : "reduce";
  CheckRequest r = base_check(
      std::string(name) + ".ptx",
      scan ? cac::programs::scan_prefix_ptx() : cac::programs::reduce_shared_ptx(),
      g, por, threads);
  r.launch.params = {{"arr_A", kA}, {"out", kC}};
  std::uint32_t sum = 0;
  for (std::uint32_t i = 0; i < g.block; ++i) {
    const auto x = static_cast<std::uint32_t>(rng.next());
    r.launch.inits.emplace_back(kA + 4 * i, x);
    sum += x;
    if (scan) r.expects.emplace_back(kC + 4 * i, sum);
  }
  if (!scan) r.expects.emplace_back(kC, sum);
  r.require_independence = true;
  return proved(geo_name(name, g, por), std::move(r), validate);
}

/// Grid-wide atomic sum (out[0] = sum A) or byte histogram
/// (hist[data[i] & 3] += 1).  The fetched old values differ between
/// schedules, so only the memory postcondition is required.
Job atomics(bool histogram, Geo g, Por por, std::uint32_t threads, Rng& rng) {
  const std::uint32_t n = g.grid * g.block;
  const char* name = histogram ? "histogram" : "atomic_sum";
  CheckRequest r = base_check(
      std::string(name) + ".ptx",
      histogram ? cac::programs::histogram_ptx() : cac::programs::atomic_sum_ptx(),
      g, por, threads);
  if (histogram) {
    r.launch.params = {{"data", kA}, {"hist", kC}, {"size", n}, {"mask", 3}};
    // All four bytes of word k hold the same value, whose low two bits
    // are k % 4: the bins are fixed (so is the contention), the data is
    // seeded, and the answer does not depend on byte order.
    std::uint32_t bins[4] = {0, 0, 0, 0};
    for (std::uint32_t k = 0; 4 * k < n; ++k) {
      const std::uint32_t byte = ((rng.below(64)) << 2) | (k % 4);
      r.launch.inits.emplace_back(kA + 4 * k, byte * 0x01010101u);
      for (std::uint32_t b = 0; b < 4 && 4 * k + b < n; ++b) ++bins[k % 4];
    }
    for (std::uint32_t b = 0; b < 4; ++b) {
      r.launch.inits.emplace_back(kC + 4 * b, 0);
      r.expects.emplace_back(kC + 4 * b, bins[b]);
    }
  } else {
    r.launch.params = {{"arr_A", kA}, {"out", kC}, {"size", n}};
    std::uint32_t sum = 0;
    for (std::uint32_t i = 0; i < n; ++i) {
      const auto x = static_cast<std::uint32_t>(rng.next());
      r.launch.inits.emplace_back(kA + 4 * i, x);
      sum += x;
    }
    r.launch.inits.emplace_back(kC, 0);
    r.expects.emplace_back(kC, sum);
  }
  return proved(geo_name(name, g, por), std::move(r), false);
}

// Known refutations (corpus.h's failure-injection kernels and
// examples/buggy/global_race.ptx), each with the property it breaks.

/// Every thread stores its tid to out[0]: with two warps the final value
/// depends on which warp stores last — schedule-dependent.
Job race_store(Geo g, std::uint32_t threads) {
  CheckRequest r = base_check("race_store.ptx", cac::programs::race_store_ptx(),
                              g, Por::None, threads);
  r.launch.params = {{"out", 0}};
  r.require_independence = true;
  return refuted(geo_name("race_store", g, Por::None), std::move(r));
}

/// The reduction without barriers: schedules disagree on the sum.
Job reduce_nobar(Geo g, std::uint32_t threads, Rng& rng) {
  CheckRequest r = base_check("reduce_nobar.ptx",
                              cac::programs::reduce_shared_nobar_ptx(), g,
                              Por::None, threads);
  r.launch.params = {{"arr_A", kA}, {"out", kC}};
  for (std::uint32_t i = 0; i < g.block; ++i) {
    r.launch.inits.emplace_back(kA + 4 * i, 1 + rng.below(1000));
  }
  r.require_independence = true;
  return refuted(geo_name("reduce_nobar", g, Por::None), std::move(r));
}

/// Thread 0 waits at a barrier its warp sibling never reaches: stuck.
Job barrier_divergence(std::uint32_t threads) {
  const Geo g{1, 2, 2};
  CheckRequest r =
      base_check("barrier_divergence.ptx", cac::programs::barrier_divergence_ptx(),
                 g, Por::None, threads);
  return refuted(geo_name("barrier_divergence", g, Por::None), std::move(r));
}

/// A divergent branch with no reconvergence before Exit: stuck.  The
/// program is hand-built, so it is emitted as PTX and lowered without
/// the mechanical Sync insertion that would repair it.
Job divergent_exit(std::uint32_t threads) {
  const Geo g{1, 2, 2};
  CheckRequest r =
      base_check("divergent_exit.ptx",
                 cac::ptx::emit_ptx(cac::programs::divergent_exit_program()), g,
                 Por::None, threads);
  r.insert_syncs = false;
  return refuted(geo_name("divergent_exit", g, Por::None), std::move(r));
}

/// examples/buggy/global_race.ptx: the last store of every thread
/// writes its block id to one word, so with two blocks the final value
/// depends on which block stores last.
Job global_race(const Corpus& corpus, Geo g, std::uint32_t threads) {
  const Corpus::File* f = nullptr;
  for (const Corpus::File& b : corpus.buggy) {
    if (b.path.find("global_race") != std::string::npos) f = &b;
  }
  if (f == nullptr) throw std::runtime_error("global_race.ptx not loaded");
  CheckRequest r = base_check(f->path, f->text, g, Por::None, threads);
  r.launch.params = {{"out", 0}};
  r.require_independence = true;
  return refuted(geo_name("global_race", g, Por::None), std::move(r));
}

// --- generated kernels ----------------------------------------------------------

const char* kHeader = ".version 6.0\n.target sm_30\n.address_size 64\n\n";

/// `copies` blocks of 7 instructions, block j computing
///   out[j*ntid + tid] = in[j*ntid + tid] + salt + j.
/// Hand answer under lint --perf: clean.  Every register is written
/// before it is read; lanes touch consecutive words (unit stride, so
/// coalesced); no two sites provably hit one address (distinct j give
/// disjoint index ranges); there are no branches, barriers or Shared
/// accesses.
std::string unrolled_lint_kernel(std::uint32_t copies, std::uint32_t salt) {
  std::ostringstream s;
  s << kHeader
    << ".visible .entry unrolled(\n  .param .u64 in,\n  .param .u64 out\n)\n{\n"
    << "  .reg .u32 %r<8>;\n  .reg .u64 %rd<8>;\n\n"
    << "  ld.param.u64 %rd1, [in];\n  ld.param.u64 %rd2, [out];\n"
    << "  mov.u32 %r1, %tid.x;\n  mov.u32 %r2, %ntid.x;\n";
  for (std::uint32_t j = 0; j < copies; ++j) {
    s << "  mad.lo.u32 %r3, %r2, " << j << ", %r1;\n"
      << "  mul.wide.u32 %rd3, %r3, 4;\n"
      << "  add.u64 %rd4, %rd1, %rd3;\n"
      << "  ld.global.u32 %r4, [%rd4];\n"
      << "  add.u32 %r4, %r4, " << (salt + j) << ";\n"
      << "  add.u64 %rd5, %rd2, %rd3;\n"
      << "  st.global.u32 [%rd5], %r4;\n";
  }
  s << "  ret;\n}\n";
  return s.str();
}

/// out[tid] = salt + in[tid] added `adds` times, as a counted loop
/// (`loop`) or as straight-line code.  Two loop/straight kernels with
/// the same count perform the same additions in the same order.
std::string accumulate_kernel(std::uint32_t adds, bool loop,
                              std::uint32_t salt) {
  std::ostringstream s;
  s << kHeader
    << ".visible .entry accumulate(\n  .param .u64 in,\n  .param .u64 out\n)\n{\n"
    << "  .reg .pred %p<2>;\n  .reg .u32 %r<6>;\n  .reg .u64 %rd<6>;\n\n"
    << "  ld.param.u64 %rd1, [in];\n  ld.param.u64 %rd2, [out];\n"
    << "  mov.u32 %r1, %tid.x;\n"
    << "  mul.wide.u32 %rd3, %r1, 4;\n"
    << "  add.u64 %rd4, %rd1, %rd3;\n"
    << "  ld.global.u32 %r2, [%rd4];\n"
    << "  mov.u32 %r3, " << salt << ";\n";
  if (loop) {
    s << "  mov.u32 %r4, 0;\nLOOP:\n"
      << "  setp.ge.u32 %p1, %r4, " << adds << ";\n"
      << "  @%p1 bra DONE;\n"
      << "  add.u32 %r3, %r3, %r2;\n"
      << "  add.u32 %r4, %r4, 1;\n"
      << "  bra LOOP;\nDONE:\n";
  } else {
    for (std::uint32_t i = 0; i < adds; ++i) s << "  add.u32 %r3, %r3, %r2;\n";
  }
  s << "  add.u64 %rd5, %rd2, %rd3;\n"
    << "  st.global.u32 [%rd5], %r3;\n  ret;\n}\n";
  return s.str();
}


std::string whitespace_variant(const Request& req, Rng& rng) {
  // Indent every line a little differently and add a comment line: the
  // lowered module, hence the cache key, is unchanged.
  auto reformat = [&rng](const std::string& src) {
    std::istringstream in(src);
    std::ostringstream out;
    out << "// resubmitted " << rng.below(1u << 30) << "\n";
    for (std::string line; std::getline(in, line);) {
      out << std::string(rng.below(4), ' ') << line;
      if (rng.below(8) == 0) out << "  // note";
      out << "\n";
      if (rng.below(8) == 0) out << "\n";
    }
    return out.str();
  };
  Request r = req;
  if (auto* c = std::get_if<CheckRequest>(&r)) {
    c->source = reformat(c->source);
  } else if (auto* l = std::get_if<LintRequest>(&r)) {
    l->source = reformat(l->source);
  } else {
    auto& e = std::get<EquivRequest>(r);
    e.source = reformat(e.source);
    e.source_b = reformat(e.source_b);
  }
  return cac::front::to_json(r);
}

// --- lint / equiv templates -------------------------------------------------

Job lint_job(const std::string& name, const std::string& file,
             std::string source, bool perf, Answer answer) {
  LintRequest r;
  r.file = file;
  r.source = std::move(source);
  r.races = true;
  r.perf = perf;
  Job j;
  j.tmpl = name;
  j.kind = Kind::Lint;
  j.request = std::move(r);
  j.answer = std::move(answer);
  return j;
}

Answer lint_answer(std::vector<std::pair<std::string, std::uint32_t>> findings,
                   bool errors) {
  Answer a;
  a.verdict = findings.empty() ? "clean" : "findings";
  a.exit_code = errors ? 1 : 0;
  a.findings = std::move(findings);
  return a;
}

/// examples/buggy/README.md: one seeded defect per file, its pass, and
/// (from the file itself) the line of the defect; the perf corpus
/// table pins its lines.  Perf findings are warnings (exit 0).
Answer buggy_answer(const std::string& path) {
  struct Row {
    const char* file;
    std::vector<std::pair<std::string, std::uint32_t>> findings;
    bool errors;
  };
  static const std::vector<Row> rows = {
      {"divergent_barrier.ptx", {{"barrier-divergence", 16}}, true},
      {"uninit_register.ptx", {{"uninit-register", 17}}, true},
      {"shared_overlap.ptx", {{"race-candidate", 15}}, true},
      {"shared_overflow.ptx", {{"shared-overflow", 18}}, true},
      // One bad address, three racing site pairs: (18,18) (18,20) (20,20).
      {"global_race.ptx",
       {{"race-candidate", 18}, {"race-candidate", 18}, {"race-candidate", 20}},
       true},
      {"strided_vecadd.ptx",
       {{"uncoalesced-global", 39},
        {"uncoalesced-global", 40},
        {"uncoalesced-global", 45}},
       false},
      {"transpose_colmajor.ptx", {{"shared-bank-conflict", 18}}, false},
      {"pitch_pow2.ptx", {{"shared-bank-conflict", 19}}, false},
      {"divergent_reduce.ptx", {{"divergent-region", 23}}, false},
      {"coalesced_copy.ptx", {}, false},
      // tests/data: the vector sum is clean; racy.ptx is race_store, one
      // store every thread makes to out[0] (line 15).
      {"vecadd.ptx", {}, false},
      {"racy.ptx", {{"race-candidate", 15}}, true},
  };
  const std::string base = path.substr(path.find_last_of('/') + 1);
  for (const Row& row : rows) {
    if (base == row.file) return lint_answer(row.findings, row.errors);
  }
  throw std::runtime_error("no hand-written answer for " + path);
}

Job equiv_job(const std::string& name, const std::string& file_a,
              std::string a, const std::string& file_b, std::string b,
              bool equivalent) {
  EquivRequest r;
  r.file = file_a;
  r.source = std::move(a);
  r.file_b = file_b;
  r.source_b = std::move(b);
  // examples/equiv/README.md pins its verdicts at --block 4 --warp 4.
  r.launch.block = {4, 1, 1};
  r.launch.warp_size = 4;
  Job j;
  j.tmpl = name;
  j.kind = Kind::Equiv;
  j.request = std::move(r);
  j.answer.verdict = equivalent ? "equivalent" : "not-equivalent";
  j.answer.exit_code = equivalent ? 0 : 1;
  j.answer.replay_validated = !equivalent;
  return j;
}

std::vector<Job> lint_templates(const Corpus& corpus, Rng& rng) {
  std::vector<Job> out;
  for (const auto* group : {&corpus.buggy, &corpus.perf, &corpus.data}) {
    for (const Corpus::File& f : *group) {
      out.push_back(lint_job("lint-" + f.path, f.path, f.text, true,
                             buggy_answer(f.path)));
    }
  }
  // The well-formed corpus: lint-clean (tests/analysis/lint_test.cc's
  // AllCorpusKernels); the three whose perf verdict is pinned clean
  // (perf_test.cc's CoalescedCorpusKernels) also run the perf passes.
  namespace P = cac::programs;
  const std::vector<std::tuple<const char*, std::string, bool>> clean = {
      {"add_vector", P::vector_add_ptx(), true},
      {"saxpy", P::saxpy_ptx(), true},
      {"copy_v2", P::copy_v2_ptx(), true},
      {"xor_cipher", P::xor_cipher_ptx(), false},
      {"scan_signature", P::scan_signature_ptx(), false},
      {"reduce", P::reduce_shared_ptx(), false},
      {"atomic_sum", P::atomic_sum_ptx(), false},
      {"histogram", P::histogram_ptx(), false},
      {"warp_reduce", P::warp_reduce_shfl_ptx(), false},
      {"scan_prefix", P::scan_prefix_ptx(), false},
  };
  for (const auto& [kernel, src, perf] : clean) {
    out.push_back(lint_job(std::string("lint-corpus-") + kernel,
                           std::string(kernel) + ".ptx", src, perf,
                           lint_answer({}, false)));
  }
  // The broken corpus kernels, by the defect corpus.h documents.
  out.push_back(lint_job("lint-corpus-barrier_divergence",
                         "barrier_divergence.ptx", P::barrier_divergence_ptx(),
                         false, lint_answer({{"barrier-divergence", 0}}, true)));
  out.push_back(lint_job("lint-corpus-race_store", "race_store.ptx",
                         P::race_store_ptx(), false,
                         lint_answer({{"race-candidate", 0}}, true)));
  // Generated straight-line kernels of about 20 to 600 instructions.
  for (const std::uint32_t copies : {3u, 12u, 40u, 85u}) {
    out.push_back(lint_job("lint-unrolled-" + std::to_string(copies),
                           "unrolled.ptx",
                           unrolled_lint_kernel(copies, rng.below(1u << 20)),
                           true, lint_answer({}, false)));
  }
  return out;
}

std::vector<Job> equiv_templates(const Corpus& corpus, Rng& rng) {
  std::vector<Job> out;
  // pairs.txt: the first four PROVED, the last two REFUTED.
  for (std::size_t i = 0; i < corpus.pairs.size(); ++i) {
    const Corpus::Pair& p = corpus.pairs[i];
    out.push_back(equiv_job("equiv-" + p.b.path, p.a.path, p.a.text, p.b.path,
                            p.b.text, i < 4));
  }
  // Generated ref/unroll-N pairs: a counted loop against its unrolling
  // (equivalent), and against an unrolling one add short
  // (not equivalent whenever the loaded element is nonzero).
  for (const std::uint32_t n : {4u, 16u, 48u}) {
    const std::uint32_t salt = rng.below(1u << 20);
    out.push_back(equiv_job("equiv-unroll-" + std::to_string(n), "ref.ptx",
                            accumulate_kernel(n, true, salt), "unroll.ptx",
                            accumulate_kernel(n, false, salt), true));
  }
  const std::uint32_t salt = rng.below(1u << 20);
  out.push_back(equiv_job("equiv-unroll-short-8", "ref.ptx",
                          accumulate_kernel(8, true, salt), "unroll.ptx",
                          accumulate_kernel(7, false, salt), false));
  return out;
}

}  // namespace

Corpus Corpus::load(const std::string& root) {
  Corpus c;
  for (const char* f : {"divergent_barrier", "uninit_register", "shared_overlap",
                        "shared_overflow", "global_race"}) {
    const std::string rel = std::string("examples/buggy/") + f + ".ptx";
    c.buggy.push_back({rel, read_file(root, rel)});
  }
  for (const char* f : {"strided_vecadd", "transpose_colmajor", "pitch_pow2",
                        "divergent_reduce", "coalesced_copy"}) {
    const std::string rel = std::string("examples/buggy/perf/") + f + ".ptx";
    c.perf.push_back({rel, read_file(root, rel)});
  }
  for (const char* f : {"vecadd", "racy"}) {
    const std::string rel = std::string("tests/data/") + f + ".ptx";
    c.data.push_back({rel, read_file(root, rel)});
  }
  std::istringstream pairs(read_file(root, "examples/equiv/pairs.txt"));
  for (std::string line; std::getline(pairs, line);) {
    std::istringstream ls(line);
    std::string a, b;
    if (!(ls >> a) || a[0] == '#' || !(ls >> b)) continue;
    c.pairs.push_back({{a, read_file(root, a)}, {b, read_file(root, b)}});
  }
  if (c.pairs.size() != 6) {
    throw std::runtime_error("examples/equiv/pairs.txt: expected 6 pairs");
  }
  return c;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "explore-serial", "explore-mt", "static-batch", "serve-agent"};
  return names;
}

std::vector<Job> instantiate(const std::string& workload, const Corpus& corpus,
                             Rng& rng) {
  using E = Elementwise;
  std::vector<Job> t;
  if (workload == "explore-serial") {
    constexpr std::uint32_t kSerial = 0;
    // Proved, plain DFS: about 10^3 to 5*10^4 states each.
    t.push_back(elementwise(E::Vecadd, {1, 12, 4}, 12, Por::None, kSerial, rng));
    t.push_back(elementwise(E::Xor, {1, 12, 4}, 12, Por::None, kSerial, rng));
    t.push_back(elementwise(E::Saxpy, {1, 12, 4}, 12, Por::None, kSerial, rng));
    t.push_back(elementwise(E::Saxpy, {1, 12, 4}, 9, Por::None, kSerial, rng));
    t.push_back(block_collective(false, {1, 4, 1}, Por::None, kSerial, rng));
    t.push_back(block_collective(false, {1, 4, 2}, Por::None, kSerial, rng));
    t.push_back(block_collective(true, {1, 4, 1}, Por::None, kSerial, rng));
    t.push_back(block_collective(true, {1, 4, 2}, Por::None, kSerial, rng));
    t.push_back(atomics(false, {1, 3, 1}, Por::None, kSerial, rng));
    t.push_back(atomics(false, {3, 1, 1}, Por::None, kSerial, rng));
    t.push_back(atomics(true, {1, 12, 4}, Por::None, kSerial, rng));
    t.push_back(atomics(true, {1, 6, 2}, Por::None, kSerial, rng));
    // A quarter with partial-order reduction (plain or oracle-fed).
    t.push_back(elementwise(E::Vecadd, {1, 12, 4}, 12, Por::Por, kSerial, rng));
    t.push_back(elementwise(E::Xor, {1, 16, 4}, 14, Por::Oracle, kSerial, rng));
    t.push_back(block_collective(false, {1, 8, 2}, Por::Oracle, kSerial, rng));
    t.push_back(block_collective(true, {1, 8, 2}, Por::Por, kSerial, rng));
    t.push_back(atomics(false, {2, 4, 2}, Por::Oracle, kSerial, rng));
    t.push_back(elementwise(E::Saxpy, {1, 16, 4}, 16, Por::Oracle, kSerial, rng));
    // The composite validate pipeline.
    t.push_back(elementwise(E::Vecadd, {1, 8, 4}, 8, Por::None, kSerial, rng, true));
    t.push_back(block_collective(false, {1, 4, 2}, Por::None, kSerial, rng, true));
    // A fifth are known refutations.
    t.push_back(race_store({1, 4, 2}, kSerial));
    t.push_back(reduce_nobar({1, 4, 2}, kSerial, rng));
    t.push_back(barrier_divergence(kSerial));
    t.push_back(divergent_exit(kSerial));
    t.push_back(global_race(corpus, {2, 2, 2}, kSerial));
  } else if (workload == "explore-mt") {
    constexpr std::uint32_t kThreads = 4;
    // About 4*10^4 states and up: below that the parallel engine's
    // wall time is mostly noise.
    t.push_back(elementwise(E::Vecadd, {1, 16, 4}, 16, Por::Por, kThreads, rng));
    t.push_back(block_collective(false, {1, 8, 2}, Por::None, kThreads, rng));
    t.push_back(block_collective(true, {1, 8, 2}, Por::None, kThreads, rng));
    t.push_back(atomics(false, {2, 4, 2}, Por::None, kThreads, rng));
    t.push_back(atomics(false, {1, 4, 1}, Por::None, kThreads, rng));
    t.push_back(block_collective(false, {1, 8, 1}, Por::Oracle, kThreads, rng));
    t.push_back(block_collective(true, {1, 8, 1}, Por::Oracle, kThreads, rng));
    t.push_back(atomics(true, {1, 6, 2}, Por::None, kThreads, rng));
    t.push_back(reduce_nobar({1, 4, 2}, kThreads, rng));
    t.push_back(global_race(corpus, {2, 2, 2}, kThreads));
  } else if (workload == "static-batch") {
    t = lint_templates(corpus, rng);
    for (Job& j : equiv_templates(corpus, rng)) t.push_back(std::move(j));
  } else if (workload == "serve-agent") {
    // The serve-agent templates: small check/lint/equiv jobs.
    t.push_back(elementwise(E::Vecadd, {1, 8, 4}, 8, Por::None, 0, rng));
    t.push_back(elementwise(E::Xor, {1, 8, 4}, 8, Por::None, 0, rng));
    t.push_back(elementwise(E::Saxpy, {1, 12, 4}, 12, Por::None, 0, rng));
    t.push_back(block_collective(false, {1, 4, 2}, Por::None, 0, rng));
    t.push_back(race_store({1, 4, 2}, 0));
    for (Job& j : lint_templates(corpus, rng)) {
      if (j.tmpl.find("lint-corpus-") == std::string::npos) {
        t.push_back(std::move(j));
      }
    }
    for (Job& j : equiv_templates(corpus, rng)) t.push_back(std::move(j));
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  return t;
}

std::vector<Job> round(const std::string& workload, const Corpus& corpus,
                       std::uint64_t seed, std::uint64_t index) {
  Rng rng(seed * 0x2545f4914f6cdd1dull + index + 1);
  std::vector<Job> jobs = instantiate(workload, corpus, rng);
  shuffle(jobs, rng);
  return jobs;
}

// --- serve-agent traffic ------------------------------------------------------

AgentTraffic::AgentTraffic(const Corpus& corpus, std::uint64_t seed)
    : corpus_(corpus), rng_(seed ^ 0x5e47e5a6e47ull) {
  Rng init(seed);
  for (Job& j : instantiate("serve-agent", corpus_, init)) {
    Submission s;
    s.mix = Submission::Mix::Novel;
    s.payload = cac::front::to_json(j.request);
    s.answer = std::move(j.answer);
    s.tmpl = std::move(j.tmpl);
    pool_.push_back(std::move(s));
  }
}

Submission AgentTraffic::novel() {
  // A fresh salt re-instantiates one salted template: new data, so a
  // new content address, and an answer computed for that data.
  Rng fresh(rng_.next());
  std::vector<Job> all = instantiate("serve-agent", corpus_, fresh);
  std::vector<Job*> salted;
  for (Job& j : all) {
    if ((j.kind == Kind::Check && !j.refutation) ||
        j.tmpl.find("unroll") != std::string::npos) {
      salted.push_back(&j);
    }
  }
  // Round-robin over the salted templates keeps every round's mix of
  // miss costs the same; only the data is random.
  Job& j = *salted[novel_count_++ % salted.size()];
  Submission s;
  s.mix = Submission::Mix::Novel;
  s.payload = cac::front::to_json(j.request);
  s.answer = j.answer;
  s.tmpl = j.tmpl;
  constexpr std::size_t kRecent = 64;
  if (recent_.size() < kRecent) {
    recent_.push_back(s);
  } else {
    recent_[recent_next_++ % kRecent] = s;
  }
  return s;
}

Submission AgentTraffic::resubmit(bool variant) {
  const auto at = rng_.below(static_cast<std::uint32_t>(pool_.size() + recent_.size()));
  Submission s = at < pool_.size() ? pool_[at] : recent_[at - pool_.size()];
  s.mix = variant ? Submission::Mix::Variant : Submission::Mix::Exact;
  if (variant) {
    s.payload = whitespace_variant(
        cac::front::request_from_json(s.payload), rng_);
  }
  return s;
}

std::pair<std::vector<Submission>, std::vector<Submission>>
AgentTraffic::round() {
  // Per client and round: 20 submissions = 11 exact (55%), 3 variants
  // (15%), 5 novel of its own plus 1 novel shared with the other
  // client (30%).
  std::pair<std::vector<Submission>, std::vector<Submission>> out;
  for (auto* side : {&out.first, &out.second}) {
    for (int i = 0; i < 11; ++i) side->push_back(resubmit(false));
    for (int i = 0; i < 3; ++i) side->push_back(resubmit(true));
    for (int i = 0; i < 5; ++i) side->push_back(novel());
    shuffle(*side, rng_);
  }
  Submission shared = novel();
  shared.mix = Submission::Mix::Shared;
  out.first.push_back(shared);
  out.second.push_back(shared);
  return out;
}

}  // namespace cacbench
