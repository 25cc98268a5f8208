// Golden-file tests for the unified JSON schema: every document the
// front end can emit (check proved/refuted, validate, lint, equiv) is
// pinned byte-for-byte against a committed golden file, and the request
// wire form round-trips.  If a schema change is intentional, regenerate
// with tools/regen_front_goldens.sh and commit the diff.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "front/cache.h"
#include "front/front.h"

namespace cac::front {
namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in) << "cannot open " << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string golden_path(const std::string& name) {
  return std::string(CAC_SOURCE_DIR) + "/tests/front/golden/" + name;
}

std::string golden(const std::string& name) {
  std::string text = read_file(golden_path(name));
  // Goldens are committed with a trailing newline (the CLI prints one);
  // the library document has none.
  if (!text.empty() && text.back() == '\n') text.pop_back();
  return text;
}

/// Compare against the committed golden — or rewrite it when
/// CAC_UPDATE_GOLDENS is set (tools/regen_front_goldens.sh).
void expect_golden(const std::string& name, const std::string& document) {
  if (std::getenv("CAC_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(golden_path(name), std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out) << "cannot write " << golden_path(name);
    out << document << "\n";
    return;
  }
  EXPECT_EQ(document, golden(name));
}

std::string data(const std::string& name) {
  return read_file(std::string(CAC_SOURCE_DIR) + "/tests/data/" + name);
}

std::string buggy(const std::string& name) {
  return read_file(std::string(CAC_SOURCE_DIR) + "/examples/buggy/" + name);
}

CheckRequest vecadd_check() {
  CheckRequest r;
  r.file = "vecadd.ptx";
  r.source = data("vecadd.ptx");
  r.launch.block = {4, 1, 1};
  r.launch.warp_size = 2;
  r.launch.global_bytes = 1024;
  r.launch.params = {{"arr_A", 0x100}, {"arr_B", 0x200}, {"arr_C", 0x300},
                     {"size", 4}};
  r.launch.inits = {{0x100, 1}, {0x104, 2}, {0x108, 3}, {0x10c, 4},
                    {0x200, 10}, {0x204, 20}, {0x208, 30}, {0x20c, 40}};
  r.expects = {{0x300, 11}, {0x304, 22}, {0x308, 33}, {0x30c, 44}};
  r.require_independence = true;
  r.exact_steps = 44;
  r.explore.max_depth = 1u << 20;
  return r;
}

CheckRequest racy_check() {
  CheckRequest r;
  r.file = "racy.ptx";
  r.source = data("racy.ptx");
  r.launch.grid = {2, 1, 1};
  r.launch.block = {1, 1, 1};
  r.launch.warp_size = 1;
  r.launch.global_bytes = 64;
  r.launch.params = {{"out", 0}};
  r.explore.max_depth = 1u << 20;
  return r;
}

TEST(GoldenJson, CheckProved) {
  const std::vector<Result> results = run(Request{vecadd_check()});
  expect_golden("check_vecadd_proved.json", to_json(results));
  EXPECT_EQ(exit_code_of(results), kExitProved);
}

TEST(GoldenJson, CheckRefutedWithCounterexample) {
  CheckRequest req = racy_check();
  req.expects = {{0, 99}};  // impossible postcondition
  const std::vector<Result> results = run(Request{req});
  expect_golden("check_racy_refuted.json", to_json(results));
  EXPECT_EQ(exit_code_of(results), kExitFinding);
}

TEST(GoldenJson, CheckLimitTripped) {
  CheckRequest req = racy_check();
  req.explore.max_states = 4;
  const std::vector<Result> results = run(Request{req});
  expect_golden("check_racy_limit.json", to_json(results));
  EXPECT_EQ(exit_code_of(results), kExitLimit);
}

TEST(GoldenJson, Validate) {
  CheckRequest req = vecadd_check();
  req.full_validate = true;
  req.explore.partial_order_reduction = true;
  const std::vector<Result> results = run(Request{req});
  expect_golden("validate_vecadd.json", to_json(results));
  EXPECT_EQ(exit_code_of(results), kExitProved);
}

TEST(GoldenJson, LintFindings) {
  LintRequest req;
  req.file = "global_race.ptx";
  req.source = buggy("global_race.ptx");
  const std::vector<Result> results = run(Request{req});
  expect_golden("lint_global_race.json", to_json(results));
  EXPECT_EQ(exit_code_of(results), kExitFinding);
}

TEST(GoldenJson, LintPerfWarnings) {
  LintRequest req;
  req.file = "strided_vecadd.ptx";
  req.source = buggy("perf/strided_vecadd.ptx");
  req.perf = true;
  const std::vector<Result> results = run(Request{req});
  expect_golden("lint_perf_strided.json", to_json(results));
  // Perf findings are warnings: never part of the correctness exit.
  EXPECT_EQ(exit_code_of(results), kExitProved);
}

TEST(GoldenJson, FindingOrderIsCanonical) {
  // Equal verdicts serialize byte-identically even across option sets
  // that change the producer's internal emission order but not the
  // finding set itself.
  LintRequest a;
  a.file = "divergent_barrier.ptx";
  a.source = buggy("divergent_barrier.ptx");
  LintRequest b = a;
  b.races = false;
  EXPECT_EQ(to_json(run(Request{a})), to_json(run(Request{b})));
}

TEST(GoldenJson, EquivProved) {
  EquivRequest req;
  req.file = "vecadd.ptx";
  req.source = data("vecadd.ptx");
  req.file_b = "vecadd.ptx";
  req.source_b = data("vecadd.ptx");
  req.launch.block = {8, 1, 1};
  req.launch.warp_size = 8;
  const std::vector<Result> results = run(Request{req});
  expect_golden("equiv_vecadd_self.json", to_json(results));
  EXPECT_EQ(exit_code_of(results), kExitProved);
}

TEST(GoldenJson, EqualVerdictsSerializeIdentically) {
  const Request req{vecadd_check()};
  EXPECT_EQ(to_json(run(req)), to_json(run(req)));
}

// The request wire form: parse(to_json(r)) must address the same cache
// entry and produce the same verdict document.
TEST(RequestRoundTrip, CheckKeyAndVerdictSurvive) {
  const Request req{vecadd_check()};
  const Request back = request_from_json(to_json(req));
  EXPECT_EQ(cache_key(req), cache_key(back));
  EXPECT_EQ(to_json(req), to_json(back));
  EXPECT_EQ(to_json(run(req)), to_json(run(back)));
}

TEST(RequestRoundTrip, LintAndEquiv) {
  LintRequest lint;
  lint.file = "global_race.ptx";
  lint.source = buggy("global_race.ptx");
  lint.races = false;
  lint.perf = true;
  const Request lreq{lint};
  const Request lback = request_from_json(to_json(lreq));
  EXPECT_EQ(cache_key(lreq), cache_key(lback));
  EXPECT_TRUE(std::get<LintRequest>(lback).perf);

  EquivRequest eq;
  eq.file = "vecadd.ptx";
  eq.source = data("vecadd.ptx");
  eq.file_b = "vecadd.ptx";
  eq.source_b = data("vecadd.ptx");
  eq.launch.block = {8, 1, 1};
  eq.sym.max_paths = 9;
  const Request ereq{eq};
  const Request eback = request_from_json(to_json(ereq));
  EXPECT_EQ(cache_key(ereq), cache_key(eback));
  EXPECT_EQ(std::get<EquivRequest>(eback).sym.max_paths, 9u);
}

TEST(RequestRoundTrip, WarpSizeOutOfRangeThrows) {
  const std::string good = to_json(Request{vecadd_check()});
  const std::string key = "\"warp\":2";
  const std::size_t at = good.find(key);
  ASSERT_NE(at, std::string::npos);
  for (const char* bad : {"0", "4294967296"}) {
    std::string text = good;
    text.replace(at, key.size(), std::string("\"warp\":") + bad);
    try {
      request_from_json(text);
      FAIL() << "expected JsonError for warp " << bad;
    } catch (const JsonError& e) {
      EXPECT_NE(std::string(e.what()).find("launch.warp"), std::string::npos);
    }
  }
}

TEST(RequestRoundTrip, ThreadsOverLimitThrows) {
  const std::string good = to_json(Request{vecadd_check()});
  const std::string key = "\"threads\":0";
  const std::size_t at = good.find(key);
  ASSERT_NE(at, std::string::npos);
  for (const char* bad : {"257", "1024", "4294967297"}) {
    std::string text = good;
    text.replace(at, key.size(), std::string("\"threads\":") + bad);
    try {
      request_from_json(text);
      FAIL() << "expected JsonError for threads " << bad;
    } catch (const JsonError& e) {
      EXPECT_NE(std::string(e.what()).find("options.threads"),
                std::string::npos);
    }
  }
  std::string max = good;
  max.replace(at, key.size(), "\"threads\":256");
  EXPECT_EQ(std::get<CheckRequest>(request_from_json(max)).explore.num_threads,
            256u);
}

TEST(RequestRoundTrip, MalformedRequestsThrow) {
  EXPECT_THROW(request_from_json("{}"), JsonError);
  EXPECT_THROW(request_from_json(R"({"command":"bogus"})"), JsonError);
  EXPECT_THROW(request_from_json("not json"), JsonError);
}

}  // namespace
}  // namespace cac::front
