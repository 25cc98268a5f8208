// Runner + serialization surface of the front library (docs/api.md).
//
//   Request  --run()-->  std::vector<Result>  --to_json()-->  schema
//
// The runners are pure library calls: they throw (PtxError,
// LaunchArgError, CheckpointError, std::exception) instead of printing
// to stderr and exiting, and every knob arrives through the request or
// the RunHooks — there is no global state.  The CLI shim
// (tools/cacval.cpp), the verification server (front/serve.h), the
// tests, and the benches all call exactly these functions.
#pragma once

#include <atomic>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "check/model.h"
#include "front/json.h"
#include "front/request.h"

namespace cac::front {

/// Transient per-run plumbing owned by the caller — never serialized,
/// never part of the verdict-cache key.
struct RunHooks {
  /// Cooperative cancellation (the CLI's SIGINT/SIGTERM flag, the
  /// server's per-job cancel).  Overrides request.explore.stop_flag.
  const std::atomic<bool>* stop_flag = nullptr;
  /// Wraps the exploration (check::ModelCheckOptions::explorer):
  /// cacbench counts and times explorations through it.
  check::ModelCheckOptions::explorer_type explorer;
  /// Resume a checkpointed exploration.  Not owned; ignored when
  /// `explorer` is set.
  const sched::Checkpoint* resume = nullptr;
  /// Called once after the por oracle has run, before exploration —
  /// the CLI prints its classic "por oracle: N access pcs proven
  /// independent" line from here so output ordering is preserved.
  std::function<void(std::size_t pcs)> on_por_oracle;
};

/// Model-check (or, with full_validate, run the composite validation
/// pipeline on) one kernel.  Returns exactly one Result.
Result run_check(const CheckRequest& req, const RunHooks& hooks = {});

/// Lint one kernel or (empty req.kernel) every kernel in the module.
/// One Result per kernel, module order.
std::vector<Result> run_lint(const LintRequest& req);

/// Symbolic equivalence of two kernels (docs/equiv.md).  Returns
/// exactly one Result.  Hooks: the counterexample search replays
/// candidate valuations through hooks.explorer when set.
Result run_equiv(const EquivRequest& req, const RunHooks& hooks = {});

/// Dispatch on the request variant.
std::vector<Result> run(const Request& req, const RunHooks& hooks = {});

/// Aggregate exit code for one request's results, by severity:
/// usage (2) > finding (1) > limit (3) > proved/clean (0).
int exit_code_of(const std::vector<Result>& results);

// --- unified JSON schema (front/serialize.cc) ------------------------
// One emitter for every JSON surface: `cacval ... --format=json`,
// serve response payloads, and the golden-file tests.  Field order is
// fixed, numbers are integers, and nothing time- or machine-dependent
// (elapsed times, RSS, store-tier accounting) appears in the body, so
// equal verdicts serialize to byte-identical documents.

/// Emit one result object into an open writer (value position).
void write_json(JsonWriter& w, const Result& r);
std::string to_json(const Result& r);
/// The document every --format=json surface prints: a JSON array of
/// result objects (one per kernel for lint; a singleton otherwise).
std::string to_json(const std::vector<Result>& results);

/// Request wire/journal form, and its inverse.  round-trip invariant:
/// parse(to_json(r)) produces a request with identical cache key and
/// identical verdict.
std::string to_json(const Request& req);
Request request_from_json(std::string_view text);
/// The same, from a document the caller has already parsed (the server
/// reads the command and `progress` from it first).  Same errors.
Request request_from_json(const JsonValue& doc);

// --- classic text rendering (front/render.cc) ------------------------
// The CLI's human-readable output, reproduced from the structured
// Result so the shim never reformats on its own: verdict lines,
// violation/limit/checkpoint/store diagnostics, counterexample
// schedules, lint findings — byte-compatible with the pre-library
// cacval output the smoke tests pin.
std::string render_text(const Result& r);

}  // namespace cac::front
