// Hand-written answers and the verdict check every workload runs.
//
// An Answer is what a request must produce: the verdict string, the
// exit code, and, for lint, the exact findings by pass and source line.
// The values are written by hand from the comments in
// src/programs/corpus.h, the tables in examples/buggy/README.md and
// examples/equiv/README.md, and the construction of the generated
// kernels (workloads.cc) — never copied from a run of the program.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "front/json.h"
#include "front/request.h"

namespace cacbench {

struct Answer {
  std::string verdict;  // "proved", "refuted", "validated", "clean", ...
  int exit_code = 0;
  /// Lint: the exact multiset of findings as (pass, source line).  A
  /// line of 0 matches any line (corpus strings have no file lines).
  std::vector<std::pair<std::string, std::uint32_t>> findings;
  /// Equiv refutations: the counterexample must be replay-validated.
  bool replay_validated = false;
};

/// The parts of one front::Result the answers speak about, read either
/// from the structured Result or from its JSON form (serve replies).
struct ResultView {
  std::string verdict;
  int exit_code = 0;
  std::vector<std::pair<std::string, std::uint32_t>> findings;
  bool replay_validated = false;
  std::uint64_t states = 0;
};

std::vector<ResultView> view_of(const std::vector<cac::front::Result>& rs);
/// `results` is the JSON array front::to_json renders.
std::vector<ResultView> view_of(const cac::front::JsonValue& results);

/// Empty when `got` matches `want`; otherwise a one-line reason.
std::string verify(const Answer& want, const std::vector<ResultView>& got);

}  // namespace cacbench
