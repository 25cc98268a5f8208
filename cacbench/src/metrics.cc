#include "metrics.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>

namespace cacbench {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return percentile(std::move(v), 50); }

double hd_percentile(std::vector<double> v, double p) {
  if (v.size() < 2) return v.empty() ? 0 : v[0];
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  const double a = p / 100.0 * (n + 1), b = (1 - p / 100.0) * (n + 1);
  const double log_beta = std::lgamma(a) + std::lgamma(b) - std::lgamma(a + b);
  // Weight of the i-th order statistic: the Beta mass on [i/n, (i+1)/n],
  // by the midpoint rule (normalised below, so the rule's error cancels).
  constexpr int kSteps = 64;
  const double h = 1.0 / (n * kSteps);
  double sum = 0, total = 0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    double w = 0;
    for (int k = 0; k < kSteps; ++k) {
      const double x = (static_cast<double>(i) * kSteps + k + 0.5) * h;
      w += std::exp((a - 1) * std::log(x) + (b - 1) * std::log1p(-x) - log_beta);
    }
    sum += w * v[i];
    total += w;
  }
  return sum / total;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

bool valid_metric_name(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

void Report::add(const std::string& name, double value,
                 const std::string& unit, std::uint64_t samples) {
  m_.push_back({name, std::isfinite(value) ? value : 0.0, unit, samples});
}

std::string Report::human() const {
  std::string out;
  char buf[256];
  for (const Metric& m : m_) {
    std::snprintf(buf, sizeof buf, "  %-36s %14.6g %-7s (n=%llu)\n",
                  m.name.c_str(), m.value, m.unit.c_str(),
                  static_cast<unsigned long long>(m.samples));
    out += buf;
  }
  return out;
}

std::string Report::json(bool correct, std::uint64_t attempted,
                         std::uint64_t failed) const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char buf[64];
  for (std::size_t i = 0; i < m_.size(); ++i) {
    // All significant digits: 17 round-trips any double.
    std::snprintf(buf, sizeof buf, "%.17g", m_[i].value);
    out += (i == 0 ? "\"" : ", \"") + m_[i].name + "\": {\"value\": " + buf +
           ", \"unit\": \"" + m_[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace cacbench
