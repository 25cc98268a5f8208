// Metric bookkeeping and the result line.
//
// Every metric is printed twice: a human-readable line with its sample
// count, and, as the last line of standard output, one JSON object
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cacbench {

/// Percentile by linear interpolation between closest ranks (the
/// "inclusive" definition); `p` in [0, 100].  0 for an empty sample.
double percentile(std::vector<double> v, double p);
double median(std::vector<double> v);
/// Harrell–Davis estimate of the `p`-th percentile: a weighted mean of
/// every order statistic, with Beta(p(n+1), (1-p)(n+1)) weights.  On a
/// few distinct values (one per template) it moves smoothly where the
/// plain percentile jumps from one value to its neighbour.
double hd_percentile(std::vector<double> v, double p);

/// Peak resident set size of this process, in MiB.
double peak_rss_mb();
/// CPU time consumed by this process (all threads), in seconds.
double process_cpu_s();
/// Monotonic wall clock in seconds.
double now_s();

/// True when `name` is a valid metric name: 1 to 64 characters from
/// [A-Za-z0-9_.-], starting with a letter or digit.
bool valid_metric_name(const std::string& name);

class Report {
 public:
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
    std::uint64_t samples = 0;  // what the value was computed from
  };

  void add(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples);
  [[nodiscard]] const std::vector<Metric>& metrics() const { return m_; }

  /// One "name value unit (n=samples)" line per metric.
  [[nodiscard]] std::string human() const;
  /// The final JSON line.
  [[nodiscard]] std::string json(bool correct, std::uint64_t attempted,
                                 std::uint64_t failed) const;

 private:
  std::vector<Metric> m_;
};

}  // namespace cacbench
