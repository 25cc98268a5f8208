// The benchmark's workloads: seeded request generators with a
// hand-written answer for every request (README.md has the catalogue).
//
// A workload is served in rounds.  Every round holds every template of
// the workload in a fixed multiplicity, instantiated with fresh input
// data from the seed and shuffled by the seed, so any two seeds put the
// same work in a round and differ only in data and order.  The same
// (workload, seed, round) always yields a byte-identical request list.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "answers.h"
#include "front/request.h"

namespace cacbench {

/// splitmix64: a fully specified generator, so a seed means the same
/// stream on every standard library.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  /// Uniform-enough integer in [0, n) for the small n used here.
  std::uint32_t below(std::uint32_t n) {
    return static_cast<std::uint32_t>(next() % n);
  }

 private:
  std::uint64_t s_;
};

/// The repository's own PTX inputs, read once from the source tree.
struct Corpus {
  struct File {
    std::string path;  // relative to the repository root
    std::string text;
  };
  std::vector<File> buggy;  // examples/buggy/*.ptx
  std::vector<File> perf;   // examples/buggy/perf/*.ptx
  std::vector<File> data;   // tests/data/*.ptx
  struct Pair {
    File a, b;
  };
  std::vector<Pair> pairs;  // examples/equiv/pairs.txt, in file order

  /// Throws std::runtime_error when a file is missing.
  static Corpus load(const std::string& root);
};

enum class Kind : std::uint8_t { Check, Validate, Lint, Equiv };

struct Job {
  std::string tmpl;  // template name, stable across seeds
  Kind kind = Kind::Check;
  cac::front::Request request;
  Answer answer;
  bool refutation = false;  // a known counterexample (check/validate)
};

/// Workload names in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Every template of `workload` once, instantiated from `rng`.  Throws
/// std::invalid_argument on an unknown workload name.
std::vector<Job> instantiate(const std::string& workload, const Corpus& corpus,
                             Rng& rng);

/// One round of `workload`: every template in its multiplicity, fresh
/// data, seeded order.
std::vector<Job> round(const std::string& workload, const Corpus& corpus,
                       std::uint64_t seed, std::uint64_t index);

// --- serve-agent ---------------------------------------------------------

/// One submission of the agent mix.
struct Submission {
  enum class Mix : std::uint8_t { Exact, Variant, Novel, Shared };
  Mix mix = Mix::Exact;
  std::string payload;  // request JSON as sent on the wire
  Answer answer;
  std::string tmpl;
};

/// The serve-agent traffic generator.  `prime()` is the pool of jobs
/// submitted during set-up so resubmits have something to hit; later
/// resubmits pick from that pool and the latest novel jobs (a ring of
/// fixed size, so memory does not grow with throughput); each
/// `round()` then gives both clients their next submissions: about 55%
/// exact resubmits, 15% whitespace/comment variants (cache hits by
/// content address), 30% novel jobs with a fresh input salt, of which
/// the last one per round is submitted by both clients at once.
class AgentTraffic {
 public:
  AgentTraffic(const Corpus& corpus, std::uint64_t seed);

  [[nodiscard]] const std::vector<Submission>& prime() const { return pool_; }
  /// Submissions for client 0 and client 1; the final entry of each is
  /// the same Shared job.
  std::pair<std::vector<Submission>, std::vector<Submission>> round();

 private:
  Submission novel();
  Submission resubmit(bool variant);

  const Corpus& corpus_;
  Rng rng_;
  std::uint64_t novel_count_ = 0;
  std::vector<Submission> pool_;    // the primed jobs
  std::vector<Submission> recent_;  // ring of the latest novel jobs
  std::size_t recent_next_ = 0;
};

}  // namespace cacbench
