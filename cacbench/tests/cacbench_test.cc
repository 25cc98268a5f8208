// The benchmark's own tests (run: python3 cacbench/run.py --selftest).
//
//  * the same seed gives a byte-identical request stream, and another
//    seed a different one;
//  * every template of every workload has a hand-written answer, and
//    the answer check rejects a wrong verdict;
//  * every workload and metric name in BENCHMARK.json uses only
//    [A-Za-z0-9_.-], and the traced run's layer metrics are exactly the
//    per_layer list;
//  * the Harrell–Davis percentile behind the direct workloads' latency
//    metrics.
//
// Usage: cacbench_test REPO_ROOT
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "answers.h"
#include "front/front.h"
#include "layers.h"
#include "metrics.h"
#include "workloads.h"

namespace {

int failures = 0;

#define CHECK(cond, ...)                                         \
  do {                                                           \
    if (!(cond)) {                                               \
      ++failures;                                                \
      std::printf("FAIL %s:%d: %s — ", __FILE__, __LINE__, #cond); \
      std::printf(__VA_ARGS__);                                  \
      std::printf("\n");                                         \
    }                                                            \
  } while (0)

using cacbench::Corpus;
using cacbench::Job;

std::string stream_bytes(const std::string& workload, const Corpus& corpus,
                         std::uint64_t seed) {
  std::string out;
  if (workload == "serve-agent") {
    cacbench::AgentTraffic traffic(corpus, seed);
    for (const auto& s : traffic.prime()) out += s.payload + "\n";
    for (int r = 0; r < 3; ++r) {
      const auto [a, b] = traffic.round();
      for (const auto& s : a) out += "0 " + s.payload + "\n";
      for (const auto& s : b) out += "1 " + s.payload + "\n";
    }
    return out;
  }
  for (std::uint64_t r = 0; r < 3; ++r) {
    for (const Job& j : cacbench::round(workload, corpus, seed, r)) {
      out += cac::front::to_json(j.request) + "\n";
    }
  }
  return out;
}

void test_streams(const Corpus& corpus) {
  for (const std::string& w : cacbench::workload_names()) {
    const std::string a = stream_bytes(w, corpus, 7);
    const std::string b = stream_bytes(w, corpus, 7);
    const std::string c = stream_bytes(w, corpus, 8);
    CHECK(!a.empty(), "%s: empty stream", w.c_str());
    CHECK(a == b, "%s: seed 7 gave two different streams", w.c_str());
    CHECK(a != c, "%s: seeds 7 and 8 gave the same stream", w.c_str());
  }
}

void test_answers(const Corpus& corpus) {
  static const std::set<std::string> zero_exit = {"proved", "validated", "clean",
                                                  "equivalent"};
  static const std::set<std::string> one_exit = {"refuted", "not-equivalent"};
  for (const std::string& w : cacbench::workload_names()) {
    cacbench::Rng rng(3);
    const std::vector<Job> jobs = cacbench::instantiate(w, corpus, rng);
    CHECK(!jobs.empty(), "%s: no templates", w.c_str());
    std::set<std::string> names;
    for (const Job& j : jobs) {
      const std::string& v = j.answer.verdict;
      CHECK(!v.empty(), "%s/%s: no answer", w.c_str(), j.tmpl.c_str());
      if (zero_exit.count(v) != 0) {
        CHECK(j.answer.exit_code == 0, "%s/%s: %s with exit %d", w.c_str(),
              j.tmpl.c_str(), v.c_str(), j.answer.exit_code);
      } else if (one_exit.count(v) != 0) {
        CHECK(j.answer.exit_code == 1, "%s/%s: %s with exit %d", w.c_str(),
              j.tmpl.c_str(), v.c_str(), j.answer.exit_code);
      } else {
        CHECK(v == "findings" && !j.answer.findings.empty(),
              "%s/%s: unexpected answer '%s'", w.c_str(), j.tmpl.c_str(),
              v.c_str());
      }
      CHECK(j.refutation == (v == "refuted"), "%s/%s: refutation flag",
            w.c_str(), j.tmpl.c_str());
      names.insert(j.tmpl);
    }
    if (w != "serve-agent") {
      CHECK(names.size() == jobs.size(), "%s: duplicate template names",
            w.c_str());
    }
  }

  // The check itself: a right answer passes, a wrong one fails.
  cacbench::Answer want;
  want.verdict = "findings";
  want.exit_code = 1;
  want.findings = {{"race-candidate", 15}};
  cacbench::ResultView got;
  got.verdict = "findings";
  got.exit_code = 1;
  got.findings = {{"race-candidate", 15}};
  CHECK(cacbench::verify(want, {got}).empty(), "a matching result was rejected");
  got.findings = {{"race-candidate", 16}};
  CHECK(!cacbench::verify(want, {got}).empty(), "a wrong line was accepted");
  got.findings = {{"race-candidate", 15}};
  got.verdict = "clean";
  CHECK(!cacbench::verify(want, {got}).empty(), "a wrong verdict was accepted");
}

void test_metric_names(const std::string& root) {
  std::ifstream in(root + "/BENCHMARK.json");
  CHECK(in.good(), "cannot read BENCHMARK.json");
  if (!in.good()) return;
  std::stringstream ss;
  ss << in.rdbuf();
  const cac::front::JsonValue doc = cac::front::json_parse(ss.str());

  std::set<std::string> workloads;
  for (const auto& w : doc.get("workloads")->arr) {
    const std::string n = w.str_or("name", "");
    CHECK(cacbench::valid_metric_name(n), "workload name '%s'", n.c_str());
    workloads.insert(n);
  }
  const auto& ours = cacbench::workload_names();
  CHECK(workloads == std::set<std::string>(ours.begin(), ours.end()),
        "BENCHMARK.json workloads differ from the program's");

  std::set<std::string> per_layer;
  for (const char* section : {"end_to_end", "per_layer"}) {
    for (const auto& m : doc.get(section)->arr) {
      const std::string n = m.str_or("name", "");
      CHECK(cacbench::valid_metric_name(n), "metric name '%s'", n.c_str());
      if (std::string(section) == "per_layer") per_layer.insert(n);
    }
  }

  // The layer metrics the probe and the traced run report.
  cacbench::Report r;
  cacbench::LayerProbe probe(nullptr, ".", 1);
  probe.report(r);
  for (const char* n :
       {"front.cache.hit_ratio", "front.serve.jobs_run", "front.serve.jobs_deduped",
        "front.serve.shed_requests", "front.serve.rtt_hit_ms",
        "front.serve.rtt_miss_ms", "sched.engine_compared",
        "sched.engine_mismatches", "trace.overhead_share", "trace.spans"}) {
    r.add(n, 0, "count", 0);
  }
  std::set<std::string> reported;
  for (const auto& m : r.metrics()) reported.insert(m.name);
  CHECK(reported == per_layer,
        "traced-run metrics (%zu) differ from BENCHMARK.json per_layer (%zu)",
        reported.size(), per_layer.size());
}

void test_hd_percentile() {
  CHECK(cacbench::hd_percentile({}, 50) == 0, "empty sample");
  CHECK(cacbench::hd_percentile({4, 4, 4}, 90) == 4, "constant sample");
  // Symmetric weights: the median of 1..9 is 5, in any order.
  const double m = cacbench::hd_percentile({9, 1, 8, 2, 7, 3, 6, 4, 5}, 50);
  CHECK(m > 4.999 && m < 5.001, "median of 1..9 is %g", m);
  const double p90 = cacbench::hd_percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 90);
  CHECK(p90 > 8 && p90 < 10, "p90 of 1..10 is %g", p90);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: cacbench_test REPO_ROOT\n");
    return 2;
  }
  const std::string root = argv[1];
  const Corpus corpus = Corpus::load(root);
  test_streams(corpus);
  test_answers(corpus);
  test_metric_names(root);
  test_hd_percentile();
  std::printf("%s (%d failure%s)\n", failures == 0 ? "PASS" : "FAIL", failures,
              failures == 1 ? "" : "s");
  return failures == 0 ? 0 : 1;
}
