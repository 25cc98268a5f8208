#include "answers.h"

#include <algorithm>

namespace cacbench {

using cac::front::JsonValue;
using cac::front::Result;

std::vector<ResultView> view_of(const std::vector<Result>& rs) {
  std::vector<ResultView> out;
  out.reserve(rs.size());
  for (const Result& r : rs) {
    ResultView v;
    v.verdict = r.verdict;
    v.exit_code = r.exit_code;
    for (const cac::front::Diagnostic& d : r.findings) {
      v.findings.emplace_back(d.pass, d.loc.line);
    }
    v.replay_validated = r.equiv_cex.present && r.equiv_cex.replay_validated;
    v.states = r.stats.states_visited;
    out.push_back(std::move(v));
  }
  return out;
}

std::vector<ResultView> view_of(const JsonValue& results) {
  std::vector<ResultView> out;
  if (!results.is_arr()) return out;
  for (const JsonValue& r : results.arr) {
    ResultView v;
    v.verdict = r.str_or("verdict", "");
    v.exit_code = static_cast<int>(r.u64_or("exit_code", 99));
    if (const JsonValue* fs = r.get("findings"); fs != nullptr && fs->is_arr()) {
      for (const JsonValue& f : fs->arr) {
        v.findings.emplace_back(f.str_or("pass", ""),
                                static_cast<std::uint32_t>(f.u64_or("line", 0)));
      }
    }
    if (const JsonValue* cex = r.get("cex"); cex != nullptr) {
      v.replay_validated = cex->bool_or("replay_validated", false);
    }
    if (const JsonValue* st = r.get("stats"); st != nullptr) {
      if (const JsonValue* ex = st->get("explore"); ex != nullptr) {
        v.states = ex->u64_or("states", 0);
      }
    }
    out.push_back(std::move(v));
  }
  return out;
}

std::string verify(const Answer& want, const std::vector<ResultView>& got) {
  if (got.size() != 1) {
    return "expected one result, got " + std::to_string(got.size());
  }
  const ResultView& g = got.front();
  if (g.verdict != want.verdict) {
    return "verdict " + g.verdict + ", expected " + want.verdict;
  }
  if (g.exit_code != want.exit_code) {
    return "exit code " + std::to_string(g.exit_code) + ", expected " +
           std::to_string(want.exit_code);
  }
  if (want.replay_validated && !g.replay_validated) {
    return "counterexample not replay-validated";
  }
  // Lint answers pin every finding; check/equiv answers pin the verdict.
  if (want.verdict == "clean" || want.verdict == "findings") {
    std::vector<std::pair<std::string, std::uint32_t>> a = want.findings;
    std::vector<std::pair<std::string, std::uint32_t>> b = g.findings;
    if (a.size() != b.size()) {
      return std::to_string(b.size()) + " findings, expected " +
             std::to_string(a.size());
    }
    // A wanted line of 0 matches any line of the same pass.
    for (auto& f : b) {
      const bool any_line = std::any_of(a.begin(), a.end(), [&](const auto& w) {
        return w.first == f.first && w.second == 0;
      });
      if (any_line) f.second = 0;
    }
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    if (a != b) {
      return "finding " + b.front().first + "@" +
             std::to_string(b.front().second) + " set differs from the answer";
    }
  }
  return {};
}

}  // namespace cacbench
