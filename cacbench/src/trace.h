// Spans for the traced run: name, start, end, parent span and request
// id, kept in memory and written as Chrome trace-event JSON at exit
// (open the file in Perfetto or chrome://tracing).
//
// The spans are recorded from the benchmark's own code, around its
// calls into each layer's public functions; the untraced run records
// none.  A span's parent is the innermost span open on the same
// thread.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace cacbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0 = top level
    std::uint64_t request = 0;
    std::uint32_t thread = 0;
    double start_us = 0;
    double end_us = 0;
  };

  /// Per-name totals, kept as spans close.
  struct Totals {
    std::uint64_t count = 0;
    double total_us = 0;
  };

  /// Spans kept for the trace file; later spans still count in totals.
  static constexpr std::size_t kMaxKept = 400000;

  std::uint64_t begin(const std::string& name, std::uint64_t request);
  /// Closes the span (which must be the innermost open span of the
  /// calling thread) and returns its duration in microseconds.
  double end(std::uint64_t id);

  [[nodiscard]] Totals totals(const std::string& name) const;
  [[nodiscard]] std::uint64_t spans() const;
  /// Writes {"traceEvents":[...]}; returns false when the file cannot
  /// be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  using Clock = std::chrono::steady_clock;
  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::uint64_t next_id_ = 1;
  std::uint64_t closed_count_ = 0;
  std::map<std::uint64_t, Span> open_;
  std::vector<Span> closed_;
  std::map<std::string, Totals> totals_;
};

/// RAII span.  It always measures its own duration; with a null
/// tracer it records nothing.
class Scope {
 public:
  Scope(Tracer* tracer, const std::string& name, std::uint64_t request);
  ~Scope();
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Close early; returns the duration in microseconds.  Later calls
  /// and the destructor do nothing more.
  double close();

 private:
  Tracer* tracer_;
  std::uint64_t id_ = 0;
  std::chrono::steady_clock::time_point start_;
  double us_ = 0;
  bool open_ = true;
};

}  // namespace cacbench
