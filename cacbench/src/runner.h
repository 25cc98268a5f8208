// One benchmark run: set-up (repeated, median reported), one closed-loop
// measuring window, the result line.  See README.md for the contract.
#pragma once

#include <cstdint>
#include <string>

namespace cacbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  /// Traced run: per-layer metrics instead of end-to-end ones.
  bool trace = false;
  /// Repository root: corpora are read from here.
  std::string root = ".";
  /// Scratch directory for sockets, state directories, checkpoints and
  /// the trace file (created, and emptied of this run's files at exit).
  std::string work_dir = ".bench_build/cacbench-run";
};

/// Runs the benchmark, prints the report and the result line, and
/// returns the process exit code (0 unless the run could not complete).
int run_benchmark(const RunOptions& opts);

}  // namespace cacbench
