#include "layers.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <stdexcept>

#include "analysis/disjoint.h"
#include "analysis/lint.h"
#include "analysis/perf.h"
#include "check/trace.h"
#include "dist/wire.h"
#include "equiv/check.h"
#include "front/cache.h"
#include "front/front.h"
#include "ptx/lower.h"
#include "ptx/parser.h"
#include "sched/explore.h"
#include "sem/launch.h"
#include "sem/step.h"
#include "sym/block_exec.h"

namespace cacbench {

namespace front = cac::front;
namespace ptx = cac::ptx;
namespace sem = cac::sem;
namespace sched = cac::sched;

namespace {

/// Launch specialization for the analyzer, as the front end derives it
/// from a request's launch (block/grid dims, param values masked to
/// their slot widths).
cac::analysis::LaunchEnv launch_env(const ptx::Program& prg,
                                    const sem::LaunchSpec& launch) {
  cac::analysis::LaunchEnv env;
  env.known = true;
  env.ntid[0] = launch.block.x;
  env.ntid[1] = launch.block.y;
  env.ntid[2] = launch.block.z;
  env.nctaid[0] = launch.grid.x;
  env.nctaid[1] = launch.grid.y;
  env.nctaid[2] = launch.grid.z;
  for (const auto& [name, value] : launch.params) {
    for (const ptx::ParamSlot& slot : prg.params()) {
      if (slot.name != name) continue;
      const std::uint64_t mask =
          slot.type.width >= 64 ? ~0ull : (1ull << slot.type.width) - 1;
      env.params[slot.offset] = value & mask;
    }
  }
  return env;
}

const ptx::Program& pick(const ptx::LoweredModule& mod, const std::string& k) {
  if (mod.kernels.empty()) throw std::runtime_error("module has no kernels");
  return k.empty() ? mod.kernels.front() : mod.kernel(k);
}

/// Walk budget per request: enough steps for a stable mean, few enough
/// to keep the traced run short.
constexpr std::uint64_t kWalkSteps = 4000;
constexpr std::uint64_t kWalkMaxLen = 4096;
constexpr int kMaxWalks = 32;
/// Cap on the decomposed exploration of an equiv kernel (the explore
/// workloads' own requests keep their own limits).
constexpr std::uint64_t kEquivExploreStates = 50000;
/// The checkpoint probe uses the daemon's default cadence
/// (ServeOptions::checkpoint_every_states) and skips explorations above
/// kCheckpointProbeStates: every checkpoint encodes the whole store, so
/// the probe's cost grows with the square of the state count.
constexpr std::uint64_t kCheckpointEvery = 4096;
constexpr std::uint64_t kCheckpointProbeStates = 65536;

}  // namespace

LayerProbe::LayerProbe(Tracer* tracer, std::string scratch_dir,
                       std::uint64_t seed)
    : tracer_(tracer), scratch_dir_(std::move(scratch_dir)), rng_(seed) {}

void LayerProbe::probe(const Job& job, std::uint64_t rid) {
  ++requests_;
  Scope whole(tracer_, "probe", rid);
  const front::Request& req = job.request;
  const auto* check = std::get_if<front::CheckRequest>(&req);
  const auto* lint = std::get_if<front::LintRequest>(&req);
  const auto* equiv = std::get_if<front::EquivRequest>(&req);
  // Time of the decomposed calls that the front runner also performs.
  double attributed_us = 0;

  auto guarded = [this](auto&& fn) {
    try {
      fn();
    } catch (const std::exception&) {
      ++errors_;
    }
  };

  // One untimed run first, so the decomposed calls and the timed runner
  // below both see warm caches and allocator.
  guarded([&] { (void)front::run(req); });

  // --- front: request codec and content address
  const std::string req_json = front::to_json(req);
  guarded([&] {
    Scope s(tracer_, "front.request_from_json", rid);
    const front::Request back = front::request_from_json(req_json);
    request_parse_us_.add(s.close());
    if (front::to_json(back) != req_json) ++errors_;
  });
  guarded([&] {
    Scope s(tracer_, "front.cache_key", rid);
    const front::CacheKey key = front::cache_key(req);
    key_us_.add(s.close());
    if (key.hex().size() != 32) ++errors_;
  });

  // --- ptx: parse and lower every source of the request
  ptx::LowerOptions lopts;
  std::vector<std::string> sources;
  if (check != nullptr) {
    sources = {check->source};
    lopts.insert_syncs = check->insert_syncs;
  } else if (lint != nullptr) {
    sources = {lint->source};
    lopts.insert_syncs = lint->insert_syncs;
  } else {
    sources = {equiv->source, equiv->source_b};
    lopts.insert_syncs = equiv->insert_syncs;
  }
  std::vector<ptx::LoweredModule> mods;
  try {
    for (const std::string& src : sources) {
      Scope p(tracer_, "ptx.parse_module", rid);
      const ptx::AstModule ast = ptx::parse_module(src);
      const double parse = p.close();
      Scope l(tracer_, "ptx.lower", rid);
      mods.push_back(ptx::lower(ast, lopts));
      const double lower = l.close();
      parse_us_.add(parse);
      lower_us_.add(lower);
      attributed_us += parse + lower;
      for (const ptx::Program& k : mods.back().kernels) instrs_.add(k.size());
    }
  } catch (const std::exception&) {
    ++errors_;
    return;
  }
  const std::string kernel =
      check != nullptr ? check->kernel : lint != nullptr ? lint->kernel : equiv->kernel;
  const ptx::Program& prg = pick(mods[0], kernel);
  const std::vector<cac::SourceLoc> locs = mods[0].locs_for(prg);
  const sem::LaunchSpec* spec =
      check != nullptr ? &check->launch : equiv != nullptr ? &equiv->launch : nullptr;
  const cac::analysis::LaunchEnv env =
      spec != nullptr ? launch_env(prg, *spec) : cac::analysis::LaunchEnv{};

  // --- analysis
  guarded([&] {
    cac::analysis::LintOptions lo;
    lo.shared_bytes = mods[0].shared_bytes;
    lo.check_races = lint == nullptr || lint->races;
    lo.perf = lint != nullptr && lint->perf;
    Scope s(tracer_, "analysis.lint_kernel", rid);
    const cac::analysis::LintReport rep =
        cac::analysis::lint_kernel(prg, locs, lo);
    const double us = s.close();
    lint_us_.add(us);
    findings_.add(static_cast<double>(rep.findings.size()));
    if (lint != nullptr) attributed_us += us;
  });
  guarded([&] {
    Scope s(tracer_, "analysis.analyze_perf", rid);
    const cac::analysis::PerfReport rep = cac::analysis::analyze_perf(prg, locs, env);
    perf_us_.add(s.close());
    (void)rep;
  });
  std::vector<std::uint32_t> oracle_pcs;
  guarded([&] {
    Scope s(tracer_, "analysis.independent_access_pcs", rid);
    oracle_pcs = cac::analysis::independent_access_pcs(prg, env);
    const double us = s.close();
    oracle_us_.add(us);
    if (check != nullptr && check->por_oracle) attributed_us += us;
  });

  // --- sem / sched / check / sym: requests that carry a launch
  if (spec != nullptr) {
    guarded([&] {
      const sem::Launch launch = spec->to_launch(prg, mods[0].shared_bytes);
      const sem::KernelConfig kc = launch.config();
      const sem::Machine init = launch.machine();

      // Seeded random walks through the trusted kernel.
      std::vector<sem::Choice> walk_trace;
      sched::StateStore store;
      std::uint64_t steps = 0;
      std::uint64_t hash_sink = 0;
      double step_ns = 0, clone_ns = 0, intern_ns = 0;
      for (int w = 0; w < kMaxWalks && steps < kWalkSteps; ++w) {
        Scope ws(tracer_, "sem.walk", rid);
        sem::Machine m = init;
        for (std::uint64_t i = 0; i < kWalkMaxLen; ++i) {
          const double t0 = now_s();
          const std::vector<sem::Choice> choices =
              sem::eligible_choices(prg, m.grid);
          if (choices.empty()) break;
          const sem::Choice c =
              choices[rng_.below(static_cast<std::uint32_t>(choices.size()))];
          const sem::StepResult sr = sem::apply_choice(prg, kc, m, c);
          const double t1 = now_s();
          step_ns += (t1 - t0) * 1e9;
          ++steps;
          if (w == 0) walk_trace.push_back(c);
          if (!sr.ok()) break;
          {
            const sem::Machine copy = m;
            copy.invalidate_hash();
            hash_sink ^= copy.hash();
          }
          const double t2 = now_s();
          clone_ns += (t2 - t1) * 1e9;
          store.intern(m);
          intern_ns += (now_s() - t2) * 1e9;
        }
      }
      if (steps != 0) {
        step_ns_.add(step_ns, steps);
        clone_hash_ns_.add(clone_ns, steps);
        intern_ns_.add(intern_ns, steps);
      }
      const sched::StateStore::Stats ws = store.stats();
      if (ws.states != 0) {
        machine_b_.add(static_cast<double>(ws.materialized_bytes), ws.states);
      }
      if (hash_sink == 0x5eed) ++errors_;  // keeps the hashes observable

      // The request's own exploration, with its own options.
      sched::ExploreOptions eo;
      if (check != nullptr) {
        eo = check->explore;
        if (check->por_oracle) {
          eo.partial_order_reduction = true;
          eo.por_independent_pcs = oracle_pcs;
        }
      } else {
        eo.max_states = kEquivExploreStates;
      }
      const double cpu0 = process_cpu_s();
      Scope es(tracer_, "sched.explore", rid);
      const sched::ExploreResult ex = sched::explore(prg, kc, init, eo);
      const double explore_us = es.close();
      const double cpu = process_cpu_s() - cpu0;
      const double threads = std::max<std::uint32_t>(1, eo.num_threads);
      cpu_s_ += cpu;
      cpu_capacity_s_ += explore_us * 1e-6 * threads;
      explore_ms_.add(explore_us / 1e3);
      states_.add(static_cast<double>(ex.states_visited));
      transitions_.add(static_cast<double>(ex.transitions));
      const sched::StateStore::Stats& st = ex.store_stats;
      if (st.states != 0) {
        resident_b_.add(static_cast<double>(st.resident_bytes), st.states);
        dedup_.add(st.dedup_ratio());
        bloom_.add(st.bloom_hit_rate());
      }
      delta_frags_.add(static_cast<double>(st.delta_fragments));

      // The same exploration with a periodic checkpoint cadence.
      if (ex.states_visited <= kCheckpointProbeStates) {
        sched::ExploreOptions ck = eo;
        ck.checkpoint_path =
            scratch_dir_ + "/ckpt-" + std::to_string(rid) + ".bin";
        ck.checkpoint_every_states = kCheckpointEvery;
        Scope cs(tracer_, "sched.explore_checkpointed", rid);
        const sched::ExploreResult exc = sched::explore(prg, kc, init, ck);
        const double ck_us = cs.close();
        std::error_code ec;
        std::filesystem::remove(ck.checkpoint_path, ec);
        if (exc.states_visited != ex.states_visited) ++errors_;
        ckpt_extra_ms_ += (ck_us - explore_us) / 1e3;
        ckpt_total_ms_ += ck_us / 1e3;
        ++ckpt_n_;
      }

      // The trusted replay: the refutation's counterexample where the
      // request has one, else the first walk's schedule.
      const std::vector<sem::Choice>& trace =
          !ex.violations.empty() ? ex.violations.front().trace : walk_trace;
      Scope rs(tracer_, "check.replay", rid);
      const cac::check::ReplayResult rep =
          cac::check::replay(prg, kc, init, trace);
      replay_us_.add(rs.close());
      if (!rep.valid) ++errors_;
    });

    guarded([&] {
      cac::sym::TermArena arena;
      cac::sym::SymEnv senv = cac::sym::SymEnv::symbolic(arena, prg);
      // Scalar parameters take the request's values so loop bounds are
      // concrete; pointers and array contents stay symbolic.
      for (const auto& [name, value] : spec->params) {
        for (const ptx::ParamSlot& slot : prg.params()) {
          if (slot.name == name && slot.type.width < 64) {
            senv.bind(prg, name, value);
          }
        }
      }
      Scope s(tracer_, "sym.sym_execute_block", rid);
      const cac::sym::BlockSummary sum =
          cac::sym::sym_execute_block(prg, spec->to_config(), 0, senv);
      sym_us_.add(s.close());
      (void)sum;
    });

    guarded([&] {
      // Equiv requests check their own pair; other requests check their
      // kernel against itself (`cacval equiv k.ptx k.ptx`).
      const ptx::Program& b =
          equiv != nullptr
              ? pick(mods[1], equiv->kernel_b.empty() ? equiv->kernel
                                                      : equiv->kernel_b)
              : prg;
      cac::equiv::EquivOptions opts;
      if (equiv != nullptr) {
        opts.normalize = equiv->normalize;
        opts.counterexample = equiv->counterexample;
        opts.sym = equiv->sym;
        opts.cex.max_trials = equiv->cex_inputs;
      } else {
        opts.counterexample = false;
      }
      cac::sym::TermArena arena;
      const cac::sym::SymEnv uenv = cac::equiv::make_union_env(arena, prg, b);
      Scope s(tracer_, "equiv.check_equivalence", rid);
      const cac::equiv::EquivResult er =
          cac::equiv::check_equivalence(prg, b, spec->to_config(), uenv, opts);
      const double us = s.close();
      equiv_us_.add(us);
      rewrites_.add(static_cast<double>(er.rewrites));
      cex_trials_.add(static_cast<double>(er.cex_trials));
      if (equiv != nullptr) attributed_us += us;
    });
  }

  // --- the front runner, whole, with the exploration it performs
  // timed through the explorer hook.
  guarded([&] {
    double explore_in_runner_us = 0;
    front::RunHooks hooks;
    hooks.explorer = [&](const ptx::Program& p, const sem::KernelConfig& kc,
                         const sem::Machine& m, const sched::ExploreOptions& o) {
      Scope s(tracer_, "sched.explore", rid);
      sched::ExploreResult r = sched::explore(p, kc, m, o);
      explore_in_runner_us += s.close();
      return r;
    };
    Scope run(tracer_, "front.run." + front::command_of(req), rid);
    const std::vector<front::Result> results = front::run(req, hooks);
    const double run_us = run.close();
    runner_us_ += run_us;
    attributed_us_ += attributed_us + explore_in_runner_us;
    ++runner_n_;

    Scope tj(tracer_, "front.to_json", rid);
    const std::string payload = front::to_json(results);
    to_json_us_.add(tj.close());

    Scope enc(tracer_, "dist.encode_frame", rid);
    const std::string frame =
        cac::dist::encode_frame(cac::dist::FrameType::kServeResponse, payload);
    encode_us_.add(enc.close());
    Scope dec(tracer_, "dist.FrameReader", rid);
    cac::dist::FrameReader reader;
    reader.feed(frame.data(), frame.size());
    const std::optional<cac::dist::Frame> f = reader.next();
    decode_us_.add(dec.close());
    if (!f || f->payload != payload) ++errors_;
    reply_bytes_.add(static_cast<double>(payload.size()));
  });
}

void LayerProbe::report(Report& r) const {
  auto add = [&r](const char* name, const Acc& a, const char* unit) {
    r.add(name, a.mean(), unit, a.n);
  };
  add("ptx.parse_us", parse_us_, "us");
  add("ptx.lower_us", lower_us_, "us");
  add("ptx.instrs_per_kernel", instrs_, "instrs");
  add("analysis.lint_us", lint_us_, "us");
  add("analysis.perf_us", perf_us_, "us");
  add("analysis.oracle_us", oracle_us_, "us");
  add("analysis.findings", findings_, "count");
  add("sem.step_ns", step_ns_, "ns");
  add("sem.clone_hash_ns", clone_hash_ns_, "ns");
  add("sem.machine_b_per_state", machine_b_, "B");
  add("sched.explore_ms", explore_ms_, "ms");
  add("sched.states", states_, "count");
  add("sched.transitions", transitions_, "count");
  add("sched.intern_ns", intern_ns_, "ns");
  add("sched.store.resident_b_per_state", resident_b_, "B");
  add("sched.store.dedup_ratio", dedup_, "ratio");
  add("sched.store.bloom_hit_rate", bloom_, "ratio");
  add("sched.store.delta_frags", delta_frags_, "count");
  r.add("sched.cpu_util",
        cpu_capacity_s_ > 0 ? cpu_s_ / cpu_capacity_s_ : 0, "ratio",
        explore_ms_.n);
  r.add("sched.checkpoint_share",
        ckpt_total_ms_ > 0 ? ckpt_extra_ms_ / ckpt_total_ms_ : 0, "share",
        ckpt_n_);
  add("check.replay_us", replay_us_, "us");
  add("sym.exec_us", sym_us_, "us");
  add("equiv.check_us", equiv_us_, "us");
  add("equiv.rewrites", rewrites_, "count");
  add("equiv.cex_trials", cex_trials_, "count");
  add("front.key_us", key_us_, "us");
  add("front.request_parse_us", request_parse_us_, "us");
  add("front.to_json_us", to_json_us_, "us");
  r.add("front.unattributed_share",
        runner_us_ > 0 ? (runner_us_ - attributed_us_) / runner_us_ : 0,
        "share", runner_n_);
  add("dist.frame_encode_us", encode_us_, "us");
  add("dist.frame_decode_us", decode_us_, "us");
  add("dist.reply_bytes", reply_bytes_, "B");
}

}  // namespace cacbench
