// The traced run's per-layer decomposition.
//
// LayerProbe takes one request of a workload and calls each layer's
// public functions on that request's own inputs, one span per call:
// ptx::parse_module / ptx::lower, analysis::lint_kernel /
// analyze_perf / independent_access_pcs, a seeded random walk through
// sem::eligible_choices + sem::apply_choice (with Machine clone + hash
// and StateStore::intern of every walk state), sched::explore with and
// without a checkpoint cadence, check::replay, sym::sym_execute_block,
// equiv::check_equivalence, front::cache_key / request_from_json /
// to_json, and dist::encode_frame / FrameReader on the reply payload.
// It then runs the request's front runner whole, and charges the
// runner's time that the decomposed spans do not cover to
// front.unattributed_share.
#pragma once

#include <cstdint>
#include <string>

#include "metrics.h"
#include "trace.h"
#include "workloads.h"

namespace cacbench {

class LayerProbe {
 public:
  /// `scratch_dir` receives the checkpoint files of the cadence probe.
  LayerProbe(Tracer* tracer, std::string scratch_dir, std::uint64_t seed);

  /// Decompose one request.  Layer calls that throw are counted in
  /// errors() and skipped; they never abort the run.
  void probe(const Job& job, std::uint64_t request);

  /// Adds every per-layer metric this probe owns to `r`.
  void report(Report& r) const;

  [[nodiscard]] std::uint64_t requests() const { return requests_; }
  [[nodiscard]] std::uint64_t errors() const { return errors_; }

 private:
  struct Acc {
    double sum = 0;
    std::uint64_t n = 0;
    void add(double v, std::uint64_t count = 1) {
      sum += v;
      n += count;
    }
    [[nodiscard]] double mean() const { return n == 0 ? 0 : sum / n; }
  };

  Tracer* tracer_;
  std::string scratch_dir_;
  Rng rng_;
  std::uint64_t requests_ = 0;
  std::uint64_t errors_ = 0;

  Acc parse_us_, lower_us_, instrs_;
  Acc lint_us_, perf_us_, oracle_us_, findings_;
  Acc step_ns_, clone_hash_ns_, machine_b_, intern_ns_;
  Acc explore_ms_, states_, transitions_;
  Acc resident_b_, dedup_, bloom_, delta_frags_;
  double cpu_s_ = 0, cpu_capacity_s_ = 0;
  double ckpt_extra_ms_ = 0, ckpt_total_ms_ = 0;
  std::uint64_t ckpt_n_ = 0;
  Acc replay_us_, sym_us_, equiv_us_, rewrites_, cex_trials_;
  Acc key_us_, request_parse_us_, to_json_us_;
  double runner_us_ = 0, attributed_us_ = 0;
  std::uint64_t runner_n_ = 0;
  Acc encode_us_, decode_us_, reply_bytes_;
};

}  // namespace cacbench
