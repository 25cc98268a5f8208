// The one JSON emitter behind every machine-readable surface
// (`--format=json`, serve payloads, the job journal) and its inverse
// for requests.  Field order is the call order below — fixed — and the
// result schema contains nothing transient (no timings, no RSS, no
// store-tier accounting, no checkpoint paths), so equal verdicts are
// byte-identical documents.  docs/api.md documents the schema; the
// golden-file tests (tests/front/result_json_test.cc) pin it.
#include <algorithm>
#include <utility>

#include "front/front.h"

namespace cac::front {

namespace {

void write_diag(JsonWriter& w, const Diagnostic& d) {
  w.begin_obj()
      .key("pass").value(d.pass)
      .key("severity").value(d.severity)
      .key("pc").value(d.pc)
      .key("line").value(d.loc.line)
      .key("column").value(d.loc.column)
      .key("message").value(d.message)
      .key("steps").value(d.steps);
  if (!d.cost.empty()) {
    w.key("cost").begin_obj();
    for (const auto& [name, value] : d.cost) w.key(name).value(value);
    w.end_obj();
  }
  w.end_obj();
}

/// Emission order for findings: (line, column, pass), stably — the
/// producing pass's internal ordering (e.g. the race pairer's) must
/// not leak into the schema, so equal verdicts stay byte-identical
/// across option sets that happen to produce the same findings
/// (`--no-races` on/off, `--perf` orderings).
std::vector<const Diagnostic*> emission_order(
    const std::vector<Diagnostic>& findings) {
  std::vector<const Diagnostic*> order;
  order.reserve(findings.size());
  for (const Diagnostic& d : findings) order.push_back(&d);
  std::stable_sort(order.begin(), order.end(),
                   [](const Diagnostic* a, const Diagnostic* b) {
                     if (a->loc.line != b->loc.line)
                       return a->loc.line < b->loc.line;
                     if (a->loc.column != b->loc.column)
                       return a->loc.column < b->loc.column;
                     return a->pass < b->pass;
                   });
  return order;
}

void write_stats(JsonWriter& w, const ResultStats& s) {
  w.begin_obj();
  if (s.have_explore) {
    w.key("explore").begin_obj()
        .key("states").value(s.states_visited)
        .key("transitions").value(s.transitions)
        .key("exhaustive").value(s.exhaustive)
        .key("limit").value(s.limit_hit)
        .key("min_steps").value(s.min_steps)
        .key("max_steps").value(s.max_steps)
        .key("max_states_limit").value(s.max_states_limit)
        .key("max_depth_limit").value(s.max_depth_limit)
        .end_obj();
  }
  if (s.have_sym) {
    w.key("sym").begin_obj()
        .key("threads").value(s.threads)
        .key("paths").value(static_cast<std::uint64_t>(s.paths))
        .key("obligations").value(static_cast<std::uint64_t>(s.obligations))
        .key("rewrites").value(s.rewrites)
        .key("cex_trials").value(s.cex_trials)
        .end_obj();
  }
  if (s.por_oracle) {
    w.key("por_oracle").begin_obj()
        .key("pcs").value(s.por_oracle_pcs)
        .end_obj();
  }
  w.end_obj();
}

}  // namespace

void write_json(JsonWriter& w, const Result& r) {
  w.begin_obj()
      .key("command").value(r.command)
      .key("file").value(r.file)
      .key("kernel").value(r.kernel);
  if (!r.kernel_b.empty()) w.key("kernel_b").value(r.kernel_b);
  w.key("verdict").value(r.verdict)
      .key("detail").value(r.detail)
      .key("exit_code").value(r.exit_code)
      .key("limit_tripped").value(r.limit_tripped);
  w.key("findings").begin_arr();
  for (const Diagnostic* d : emission_order(r.findings)) write_diag(w, *d);
  w.end_arr();
  w.key("counterexample").begin_arr();
  for (const std::string& c : r.counterexample) w.value(c);
  w.end_arr();
  if (r.equiv_failure.present) {
    w.key("failure").begin_obj()
        .key("thread").value(r.equiv_failure.thread)
        .key("path_index").value(r.equiv_failure.path_index)
        .key("obligation").value(r.equiv_failure.obligation)
        .key("cell").value(r.equiv_failure.cell)
        .key("lhs").value(r.equiv_failure.lhs)
        .key("rhs").value(r.equiv_failure.rhs)
        .end_obj();
  }
  if (r.equiv_cex.present) {
    w.key("cex").begin_obj();
    w.key("inputs").begin_arr();
    for (const auto& [name, value] : r.equiv_cex.inputs) {
      w.begin_arr().value(name).value(value).end_arr();
    }
    w.end_arr();
    w.key("region").value(r.equiv_cex.region)
        .key("offset").value(r.equiv_cex.offset)
        .key("addr").value(r.equiv_cex.addr)
        .key("value_a").value(r.equiv_cex.value_a)
        .key("value_b").value(r.equiv_cex.value_b)
        .key("replay_validated").value(r.equiv_cex.replay_validated)
        .end_obj();
  }
  w.key("stats");
  write_stats(w, r.stats);
  w.end_obj();
}

std::string to_json(const Result& r) {
  JsonWriter w;
  write_json(w, r);
  return w.take();
}

std::string to_json(const std::vector<Result>& results) {
  JsonWriter w;
  w.begin_arr();
  for (const Result& r : results) write_json(w, r);
  w.end_arr();
  return w.take();
}

// --- requests --------------------------------------------------------

namespace {

void write_dim3(JsonWriter& w, const sem::Dim3& d) {
  w.begin_arr().value(d.x).value(d.y).value(d.z).end_arr();
}

void write_launch(JsonWriter& w, const sem::LaunchSpec& l) {
  w.begin_obj();
  w.key("grid");
  write_dim3(w, l.grid);
  w.key("block");
  write_dim3(w, l.block);
  w.key("warp").value(l.warp_size)
      .key("global").value(l.global_bytes)
      .key("shared").value(l.shared_bytes);
  w.key("params").begin_arr();
  for (const auto& [name, value] : l.params) {
    w.begin_arr().value(name).value(value).end_arr();
  }
  w.end_arr();
  w.key("inits").begin_arr();
  for (const auto& [addr, value] : l.inits) {
    w.begin_arr().value(addr).value(value).end_arr();
  }
  w.end_arr();
  w.end_obj();
}

/// The client-settable subset of ExploreOptions.  Engine plumbing
/// (checkpoint paths, store tiering, hooks) is owned by whoever runs
/// the request and never crosses the wire.
void write_explore(JsonWriter& w, const sched::ExploreOptions& e) {
  w.begin_obj()
      .key("max_steps").value(e.max_depth)
      .key("max_states").value(e.max_states)
      .key("stop_at_first_violation").value(e.stop_at_first_violation)
      .key("por").value(e.partial_order_reduction)
      .key("deadline_ms").value(e.deadline_ms)
      .key("mem_limit_bytes").value(e.mem_limit_bytes)
      .end_obj();
}

void write_check(JsonWriter& w, const CheckRequest& c) {
  w.begin_obj()
      .key("command").value(c.full_validate ? "validate" : "check")
      .key("file").value(c.file)
      .key("source").value(c.source)
      .key("kernel").value(c.kernel);
  w.key("launch");
  write_launch(w, c.launch);
  w.key("options");
  write_explore(w, c.explore);
  w.key("expects").begin_arr();
  for (const auto& [addr, value] : c.expects) {
    w.begin_arr().value(addr).value(value).end_arr();
  }
  w.end_arr();
  w.key("independent").value(c.require_independence)
      .key("exact_steps").value(c.exact_steps)
      .key("por_oracle").value(c.por_oracle)
      .key("insert_syncs").value(c.insert_syncs)
      .key("profile").value(c.profile)
      .end_obj();
}

void write_lint(JsonWriter& w, const LintRequest& l) {
  w.begin_obj()
      .key("command").value("lint")
      .key("file").value(l.file)
      .key("source").value(l.source)
      .key("kernel").value(l.kernel)
      .key("races").value(l.races)
      .key("insert_syncs").value(l.insert_syncs)
      .key("perf").value(l.perf)
      .end_obj();
}

void write_equiv(JsonWriter& w, const EquivRequest& e) {
  w.begin_obj()
      .key("command").value("equiv")
      .key("file").value(e.file)
      .key("source").value(e.source)
      .key("file_b").value(e.file_b)
      .key("source_b").value(e.source_b)
      .key("kernel").value(e.kernel)
      .key("kernel_b").value(e.kernel_b);
  w.key("launch");
  write_launch(w, e.launch);
  w.key("insert_syncs").value(e.insert_syncs);
  w.key("sym").begin_obj()
      .key("max_steps").value(e.sym.max_steps)
      .key("max_paths").value(static_cast<std::uint64_t>(e.sym.max_paths))
      .end_obj();
  w.key("mode").value(e.mode)
      .key("normalize").value(e.normalize)
      .key("counterexample").value(e.counterexample)
      .key("cex_inputs").value(e.cex_inputs);
  w.end_obj();
}

/// An integer for a 32-bit field: wider values are rejected, not
/// truncated.
std::uint32_t as_u32(const JsonValue& v, const std::string& field) {
  const std::uint64_t x = v.as_u64();
  if (x > UINT32_MAX) {
    throw JsonError("json: " + field + " must be at most " +
                    std::to_string(UINT32_MAX) + ", got " +
                    std::to_string(x));
  }
  return static_cast<std::uint32_t>(x);
}

sem::Dim3 parse_dim3(const JsonValue* v, sem::Dim3 dflt,
                     const std::string& field) {
  if (v == nullptr) return dflt;
  if (!v->is_arr() || v->arr.empty() || v->arr.size() > 3) {
    throw JsonError("json: dim3 must be an array of 1..3 integers");
  }
  sem::Dim3 d{1, 1, 1};
  d.x = as_u32(v->arr[0], field);
  if (v->arr.size() > 1) d.y = as_u32(v->arr[1], field);
  if (v->arr.size() > 2) d.z = as_u32(v->arr[2], field);
  return d;
}

sem::LaunchSpec parse_launch(const JsonValue* v) {
  sem::LaunchSpec l;
  if (v == nullptr) return l;
  if (!v->is_obj()) throw JsonError("json: launch must be an object");
  l.grid = parse_dim3(v->get("grid"), l.grid, "launch.grid");
  l.block = parse_dim3(v->get("block"), l.block, "launch.block");
  const std::uint64_t warp = v->u64_or("warp", l.warp_size);
  if (warp == 0 || warp > UINT32_MAX) {
    throw JsonError("json: launch.warp must be in 1.." +
                    std::to_string(UINT32_MAX) + ", got " +
                    std::to_string(warp));
  }
  l.warp_size = static_cast<std::uint32_t>(warp);
  l.global_bytes = v->u64_or("global", l.global_bytes);
  l.shared_bytes = v->u64_or("shared", l.shared_bytes);
  if (const JsonValue* params = v->get("params")) {
    for (const JsonValue& p : params->arr) {
      if (!p.is_arr() || p.arr.size() != 2) {
        throw JsonError("json: params entries must be [name, value]");
      }
      l.params.emplace_back(p.arr[0].as_str(), p.arr[1].as_u64());
    }
  }
  if (const JsonValue* inits = v->get("inits")) {
    for (const JsonValue& p : inits->arr) {
      if (!p.is_arr() || p.arr.size() != 2) {
        throw JsonError("json: inits entries must be [addr, value]");
      }
      l.inits.emplace_back(p.arr[0].as_u64(),
                           as_u32(p.arr[1], "launch.inits value"));
    }
  }
  return l;
}

sched::ExploreOptions parse_explore(const JsonValue* v) {
  sched::ExploreOptions e;
  e.max_depth = 1u << 20;  // the front ends' default step bound
  if (v == nullptr) return e;
  if (!v->is_obj()) throw JsonError("json: options must be an object");
  e.max_depth = v->u64_or("max_steps", e.max_depth);
  e.max_states = v->u64_or("max_states", e.max_states);
  e.stop_at_first_violation =
      v->bool_or("stop_at_first_violation", e.stop_at_first_violation);
  e.partial_order_reduction = v->bool_or("por", e.partial_order_reduction);
  e.deadline_ms = v->u64_or("deadline_ms", 0);
  e.mem_limit_bytes = v->u64_or("mem_limit_bytes", 0);
  return e;
}

CheckRequest parse_check(const JsonValue& v, bool full_validate) {
  CheckRequest c;
  c.file = v.str_or("file", "");
  c.source = v.str_or("source", "");
  c.kernel = v.str_or("kernel", "");
  c.launch = parse_launch(v.get("launch"));
  c.explore = parse_explore(v.get("options"));
  if (const JsonValue* ex = v.get("expects")) {
    for (const JsonValue& p : ex->arr) {
      if (!p.is_arr() || p.arr.size() != 2) {
        throw JsonError("json: expects entries must be [addr, value]");
      }
      c.expects.emplace_back(p.arr[0].as_u64(),
                             as_u32(p.arr[1], "expects value"));
    }
  }
  c.require_independence = v.bool_or("independent", false);
  c.exact_steps = v.u64_or("exact_steps", 0);
  c.por_oracle = v.bool_or("por_oracle", false);
  c.insert_syncs = v.bool_or("insert_syncs", true);
  c.full_validate = full_validate;
  c.profile = v.bool_or("profile", false);
  return c;
}

LintRequest parse_lint(const JsonValue& v) {
  LintRequest l;
  l.file = v.str_or("file", "");
  l.source = v.str_or("source", "");
  l.kernel = v.str_or("kernel", "");
  l.races = v.bool_or("races", true);
  l.insert_syncs = v.bool_or("insert_syncs", true);
  l.perf = v.bool_or("perf", false);
  return l;
}

EquivRequest parse_equiv(const JsonValue& v) {
  EquivRequest e;
  e.file = v.str_or("file", "");
  e.source = v.str_or("source", "");
  e.file_b = v.str_or("file_b", "");
  e.source_b = v.str_or("source_b", "");
  e.kernel = v.str_or("kernel", "");
  e.kernel_b = v.str_or("kernel_b", "");
  e.launch = parse_launch(v.get("launch"));
  e.insert_syncs = v.bool_or("insert_syncs", true);
  if (const JsonValue* sym = v.get("sym")) {
    e.sym.max_steps = sym->u64_or("max_steps", e.sym.max_steps);
    e.sym.max_paths = static_cast<std::size_t>(
        sym->u64_or("max_paths", e.sym.max_paths));
  }
  e.mode = v.str_or("mode", e.mode);
  e.normalize = v.bool_or("normalize", e.normalize);
  e.counterexample = v.bool_or("counterexample", e.counterexample);
  e.cex_inputs = v.u64_or("cex_inputs", e.cex_inputs);
  return e;
}

}  // namespace

std::string to_json(const Request& req) {
  JsonWriter w;
  if (const auto* c = std::get_if<CheckRequest>(&req)) {
    write_check(w, *c);
  } else if (const auto* l = std::get_if<LintRequest>(&req)) {
    write_lint(w, *l);
  } else {
    write_equiv(w, std::get<EquivRequest>(req));
  }
  return w.take();
}

Request request_from_json(std::string_view text) {
  return request_from_json(json_parse(text));
}

Request request_from_json(const JsonValue& v) {
  if (!v.is_obj()) throw JsonError("json: request must be an object");
  const std::string command = v.str_or("command", "");
  if (command == "check") return parse_check(v, false);
  if (command == "validate") return parse_check(v, true);
  if (command == "lint") return parse_lint(v);
  if (command == "equiv") return parse_equiv(v);
  throw JsonError("json: unknown command '" + command + "'");
}

}  // namespace cac::front
