// cacbench — the repository benchmark program (README.md).
//
//   cacbench --workload NAME --seed N --seconds S --trace 0|1
//            [--root DIR] [--work-dir DIR]
//   cacbench --calibrate --workload NAME [--seed N] [--root DIR]
//
// --calibrate runs every template of the workload once and prints its
// state count, wall time and answer check: the sizing table in
// README.md comes from it.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "answers.h"
#include "front/front.h"
#include "metrics.h"
#include "runner.h"
#include "workloads.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: cacbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--root DIR] [--work-dir DIR]\n"
               "       cacbench --calibrate --workload NAME [--seed N] [--root DIR]\n");
  return 2;
}

int calibrate(const cacbench::RunOptions& o) {
  const cacbench::Corpus corpus = cacbench::Corpus::load(o.root);
  cacbench::Rng rng(o.seed);
  int bad = 0;
  for (const cacbench::Job& j : cacbench::instantiate(o.workload, corpus, rng)) {
    const double t0 = cacbench::now_s();
    std::string err;
    std::uint64_t states = 0;
    try {
      const auto views = cacbench::view_of(cac::front::run(j.request));
      for (const auto& v : views) states += v.states;
      err = cacbench::verify(j.answer, views);
    } catch (const std::exception& e) {
      err = e.what();
    }
    std::printf("%-44s %9llu states %10.2f ms  %s\n", j.tmpl.c_str(),
                static_cast<unsigned long long>(states),
                (cacbench::now_s() - t0) * 1e3, err.empty() ? "ok" : err.c_str());
    if (!err.empty()) ++bad;
  }
  return bad == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  cacbench::RunOptions o;
  bool have_seconds = false, have_trace = false, do_calibrate = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        o.workload = value();
      } else if (a == "--seed") {
        o.seed = std::stoull(value());
      } else if (a == "--seconds") {
        o.seconds = std::stod(value());
        have_seconds = true;
      } else if (a == "--trace") {
        const std::string t = value();
        if (t != "0" && t != "1") return usage();
        o.trace = t == "1";
        have_trace = true;
      } else if (a == "--root") {
        o.root = value();
      } else if (a == "--work-dir") {
        o.work_dir = value();
      } else if (a == "--calibrate") {
        do_calibrate = true;
      } else {
        return usage();
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "cacbench: %s\n", e.what());
      return usage();
    }
  }
  if (o.workload.empty()) return usage();
  try {
    if (do_calibrate) return calibrate(o);
    if (!have_seconds || !have_trace || o.seconds <= 0) return usage();
    return cacbench::run_benchmark(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cacbench: %s\n", e.what());
    return 1;
  }
}
