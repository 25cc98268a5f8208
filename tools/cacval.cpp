// cacval — thin command-line shim over the front library (src/front).
//
// Every verification path — lint, check, validate, equiv — builds a
// front::Request, calls front::run, and prints either the classic text
// (front::render_text, byte-compatible with the old monolith) or the
// unified JSON schema (front::to_json).  The shim owns only what a CLI
// must own: argv parsing, signal handling, files, and process exit.
//
//   cacval dump   FILE.ptx [--kernel K] [--no-sync-insertion]
//   cacval emit   FILE.ptx [--kernel K]
//   cacval lint   FILE.ptx [--kernel K] [--format=json] [--no-races]
//                 [--perf] (adds the static performance passes —
//                  uncoalesced-global / shared-bank-conflict /
//                  divergent-region — as exit-code-neutral warnings)
//   cacval run    FILE.ptx [launch options] [--profile]
//   cacval check  FILE.ptx [launch options] [--expect ADDR=U32]...
//                 [--independent] [--exact-steps N] [--por] [--por-oracle]
//                 [--format=json]
//                 [--checkpoint PATH] [--checkpoint-every N]
//                 [--resume PATH] [--deadline MS] [--mem-limit MIB]
//   cacval validate FILE.ptx [same flags as check] [--profile]
//   cacval races  FILE.ptx [launch options]
//   cacval dist-worker FILE.ptx [launch options] --dist-connect HOST:PORT
//   cacval equiv  FILE_A.ptx FILE_B.ptx [--kernel K] [--kernel-b K2]
//                 [--block ...] [--sym-steps N] [--sym-paths N]
//                 [--mode normalized|lowering] [--no-normalize]
//                 [--no-cex] [--cex-inputs N] [--format=json]
//   cacval equiv  --batch PAIRS.txt [shared flags as above]
//                 (each line: FILE_A FILE_B [KERNEL [KERNEL_B]];
//                  '#' comments; one Result per pair, worst exit code)
//
// Verification as a service (docs/serve.md):
//   cacval serve  --socket PATH | --tcp HOST:PORT
//                 [--state-dir DIR] [--serve-workers N] [--queue-limit N]
//                 [--job-deadline MS] [--job-mem-limit MIB]
//                 [--cache-entries N] [--cache-bytes MIB]
//                 [--checkpoint-every N] [--verbose]
//   cacval submit <check|validate|lint|equiv> FILE [FILE_B]
//                 --to ENDPOINT [the same flags as the local command]
//                 [--progress N] [--timeout MS] [--retries N]
//   cacval submit <ping|stats|shutdown> --to ENDPOINT [--timeout MS]
//
// Submission hardening (docs/robustness.md): --timeout (default 30000,
// 0 = wait forever) bounds server inactivity per frame; --retries
// (default 3) bounds reconnect-and-resubmit cycles.  A shed request
// exits 4 (busy, retryable after the advertised backoff); an
// unreachable or mid-stream-dead server exits 5 (retryable —
// resubmitting re-attaches to the journaled job).
//
// Launch options:
//   --kernel K          kernel name (default: the first kernel)
//   --grid X[,Y[,Z]]    grid size (default 1)
//   --block X[,Y[,Z]]   block size (default 32)
//   --warp N            warp size (default 32)
//   --global BYTES      Global space size (default 4096)
//   --shared BYTES      Shared bank size per block (default 4096)
//   --param NAME=VAL    kernel argument (repeatable; VAL may be 0x..)
//   --init ADDR=U32     initialize a Global word (repeatable)
//   --sched S           first | rr | random:SEED   (default first)
//   --max-steps N       step/depth bound (default 1<<20)
//   --max-states N      distinct-state bound for check/validate
//   --por-oracle        --por plus the static disjointness oracle
//
// Tiered state store (check/validate; docs/explorer.md):
//   --store-budget MIB / --spill-dir DIR
//
// Distributed exploration (check/validate; docs/distributed.md):
//   --dist-workers N / --dist-listen H:P / --dist-verbose
//
// Exit status (docs/api.md, unified across every subcommand):
//   0 proved / clean / validated / equivalent,
//   1 violation / refutation / race / lint finding,
//   2 usage or input error (including corrupt checkpoints),
//   3 a limit tripped before a verdict (inconclusive),
//   4 the server shed the request (busy; retryable),
//   5 the server was unreachable within --timeout (retryable),
//   128+signo when stopped by SIGINT/SIGTERM (after writing a final
//   checkpoint if --checkpoint was given).
//
// Fault injection (docs/robustness.md): the CAC_FAULT_PLAN environment
// variable installs a deterministic fault plan (support/fault.h) into
// this process before anything else runs.
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "check/profile.h"
#include "check/race.h"
#include "dist/coordinator.h"
#include "dist/transport.h"
#include "dist/worker.h"
#include "front/front.h"
#include "front/serve.h"
#include "ptx/emit.h"
#include "ptx/lower.h"
#include "sched/checkpoint.h"
#include "sched/explore.h"
#include "sched/scheduler.h"
#include "sem/launch.h"
#include "support/fault.h"

using namespace cac;

namespace {

struct Options {
  std::string command;
  std::string file;
  std::string file_b;   // equiv only
  std::string kernel;
  std::string kernel_b;
  /// The shared launch-configuration surface (sem/launch.h); the
  /// --grid/--block/--warp/--global/--shared/--param/--init flags land
  /// here via sem::parse_launch_args.
  sem::LaunchSpec launch;
  /// Single source of truth for every exploration limit: --max-steps
  /// is ExploreOptions.max_depth, --max-states is .max_states, --por
  /// is .partial_order_reduction.
  /// cmd_run/cmd_races reuse max_depth as their step bound.
  sched::ExploreOptions explore;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> expects;
  std::string sched = "first";
  std::uint64_t exact_steps = 0;
  std::string resume_path;
  /// Distributed exploration (dist/coordinator.h): 0 = in-process.
  std::uint32_t dist_workers = 0;
  std::string dist_listen;
  std::string dist_connect;  // dist-worker command only
  bool dist_verbose = false;
  /// Hidden crash-drill seam (--dist-test-die W=N): worker W SIGKILLs
  /// itself after owning N states.
  std::uint32_t dist_die_worker = dist::kNoWorker;
  std::uint64_t dist_die_after = 0;
  bool independent = false;
  bool profile = false;
  bool insert_syncs = true;
  bool por_oracle = false;
  /// Output format ("text" or "json") for lint/check/validate/equiv.
  std::string format = "text";
  bool lint_races = true;
  bool lint_perf = false;
  /// Symbolic bounds (equiv).
  sym::SymExecOptions sym;
  /// Equiv checker configuration (docs/equiv.md).
  std::string eq_mode = "normalized";
  bool eq_normalize = true;
  bool eq_cex = true;
  std::uint64_t cex_inputs = 256;
  /// Equiv batch mode: a pair-list file instead of two positional
  /// files.
  std::string batch;
  /// submit: server endpoint and progress-event cadence.
  std::string to;
  std::uint64_t progress = 0;
  /// submit: per-frame inactivity timeout (ms; 0 = wait forever) and
  /// reconnect-and-resubmit attempts.
  std::uint64_t timeout_ms = 30000;
  std::uint64_t retries = 3;

  Options() { explore.max_depth = 1u << 20; }
};

// SIGINT/SIGTERM request a graceful stop: the explorers poll the flag,
// drain, write a final checkpoint when one was requested, and cacval
// exits 128+signo.  Only async-signal-safe stores happen here.
std::atomic<bool> g_stop{false};
std::atomic<int> g_signo{0};

extern "C" void handle_stop_signal(int signo) {
  g_signo.store(signo, std::memory_order_relaxed);
  g_stop.store(true, std::memory_order_relaxed);
}

void install_signal_handlers() {
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
}

/// 128+signo if the run was interrupted, otherwise the verdict code.
int finish_exit_code(int verdict_code) {
  const int signo = g_signo.load(std::memory_order_relaxed);
  return signo != 0 ? 128 + signo : verdict_code;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "cacval: %s\n(see the header of tools/cacval.cpp "
                       "for usage)\n", why);
  std::exit(front::kExitUsage);
}

std::uint64_t parse_u64(const std::string& s) {
  try {
    std::size_t used = 0;
    const std::uint64_t v = std::stoull(s, &used, 0);
    if (used != s.size()) usage(("bad number: " + s).c_str());
    return v;
  } catch (const std::exception&) {
    usage(("bad number: " + s).c_str());
  }
}

/// A value that lands in a 32-bit field: anything wider is a usage
/// error, not a silent truncation.
std::uint32_t parse_u32(const std::string& flag, const std::string& s) {
  const std::uint64_t v = parse_u64(s);
  if (v > UINT32_MAX) {
    usage((flag + " must be at most " + std::to_string(UINT32_MAX) +
           ", got " + s).c_str());
  }
  return static_cast<std::uint32_t>(v);
}

/// A MiB count converted to bytes: a count whose byte value does not
/// fit in 64 bits is a usage error, not a silent wrap.
std::uint64_t parse_mib(const std::string& flag, const std::string& s) {
  const std::uint64_t v = parse_u64(s);
  if (v > (UINT64_MAX >> 20)) {
    usage((flag + " must be at most " + std::to_string(UINT64_MAX >> 20) +
           " MiB, got " + s).c_str());
  }
  return v << 20;
}

std::pair<std::string, std::string> split_eq(const std::string& s) {
  const auto eq = s.find('=');
  if (eq == std::string::npos) usage("expected NAME=VALUE");
  return {s.substr(0, eq), s.substr(eq + 1)};
}

Options parse_args(int argc, char** argv) {
  if (argc < 3) usage("missing command or file");
  Options o;
  o.command = argv[1];
  o.file = argv[2];
  int first_flag = 3;
  if (o.command == "equiv") {
    if (o.file == "--batch") {
      // `cacval equiv --batch PAIRS.txt` — the pair list replaces the
      // two positional files.
      if (argc < 4) usage("--batch needs a pair-list file");
      o.batch = argv[3];
      o.file.clear();
      first_flag = 4;
    } else {
      if (argc < 4) usage("equiv needs two files (or --batch FILE)");
      o.file_b = argv[3];
      first_flag = 4;
    }
  }
  // Launch-configuration flags are parsed by the shared library
  // routine; everything it does not recognize comes back for the
  // tool-specific second pass.
  std::vector<std::string> args(argv + first_flag, argv + argc);
  std::vector<std::string> rest;
  try {
    rest = sem::parse_launch_args(args, o.launch);
  } catch (const sem::LaunchArgError& e) {
    usage(e.what());
  }
  for (std::size_t i = 0; i < rest.size(); ++i) {
    const std::string& a = rest[i];
    auto next = [&]() -> std::string {
      if (++i >= rest.size()) usage(("missing value for " + a).c_str());
      return rest[i];
    };
    if (a == "--kernel") o.kernel = next();
    else if (a == "--kernel-b") o.kernel_b = next();
    else if (a == "--expect") {
      const auto [k, v] = split_eq(next());
      o.expects.emplace_back(parse_u64(k), parse_u32(a, v));
    } else if (a == "--sched") o.sched = next();
    else if (a == "--max-steps") o.explore.max_depth = parse_u64(next());
    else if (a == "--max-states") o.explore.max_states = parse_u64(next());
    else if (a == "--exact-steps") o.exact_steps = parse_u64(next());
    else if (a == "--checkpoint") o.explore.checkpoint_path = next();
    else if (a == "--checkpoint-every") {
      o.explore.checkpoint_every_states = parse_u64(next());
    }
    else if (a == "--resume") o.resume_path = next();
    else if (a == "--dist-workers") {
      o.dist_workers = parse_u32(a, next());
    }
    else if (a == "--dist-listen") o.dist_listen = next();
    else if (a == "--dist-connect") o.dist_connect = next();
    else if (a == "--dist-verbose") o.dist_verbose = true;
    else if (a == "--dist-test-die") {
      const auto [w, n] = split_eq(next());
      o.dist_die_worker = parse_u32(a, w);
      o.dist_die_after = parse_u64(n);
    }
    else if (a == "--deadline") o.explore.deadline_ms = parse_u64(next());
    else if (a == "--mem-limit") {
      o.explore.mem_limit_bytes = parse_mib(a, next());
    }
    else if (a == "--store-budget") {
      o.explore.store_resident_budget_bytes = parse_mib(a, next());
    }
    else if (a == "--spill-dir") o.explore.store_spill_dir = next();
    else if (a == "--independent") o.independent = true;
    else if (a == "--por") o.explore.partial_order_reduction = true;
    else if (a == "--por-oracle") o.por_oracle = true;
    else if (a == "--format") o.format = next();
    else if (a.rfind("--format=", 0) == 0) o.format = a.substr(9);
    else if (a == "--no-races") o.lint_races = false;
    else if (a == "--perf") o.lint_perf = true;
    else if (a == "--profile") o.profile = true;
    else if (a == "--no-sync-insertion") o.insert_syncs = false;
    else if (a == "--sym-steps") o.sym.max_steps = parse_u64(next());
    else if (a == "--sym-paths") o.sym.max_paths = parse_u64(next());
    else if (a == "--mode") o.eq_mode = next();
    else if (a == "--no-normalize") o.eq_normalize = false;
    else if (a == "--no-cex") o.eq_cex = false;
    else if (a == "--cex-inputs") o.cex_inputs = parse_u64(next());
    else if (a == "--batch") o.batch = next();
    else if (a == "--to") o.to = next();
    else if (a == "--progress") o.progress = parse_u64(next());
    else if (a == "--timeout") o.timeout_ms = parse_u64(next());
    else if (a == "--retries") o.retries = parse_u64(next());
    else usage(("unknown option " + a).c_str());
  }
  if (!o.explore.checkpoint_path.empty() &&
      o.explore.checkpoint_every_states == 0) {
    o.explore.checkpoint_every_states = 256;
  }
  if (o.format != "text" && o.format != "json") {
    usage("unknown --format (use text | json)");
  }
  return o;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) usage(("cannot open " + path).c_str());
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::unique_ptr<sched::Scheduler> make_scheduler(const std::string& name) {
  if (name == "first") return std::make_unique<sched::FirstChoiceScheduler>();
  if (name == "rr") return std::make_unique<sched::RoundRobinScheduler>();
  if (name.rfind("random:", 0) == 0) {
    return std::make_unique<sched::RandomScheduler>(
        parse_u64(name.substr(7)));
  }
  usage("unknown scheduler (use first | rr | random:SEED)");
}

const ptx::Program& pick_kernel(const ptx::LoweredModule& mod,
                                const Options& o) {
  if (mod.kernels.empty()) usage("module has no kernels");
  if (o.kernel.empty()) return mod.kernels.front();
  return mod.kernel(o.kernel);
}

sem::Launch make_launch(const ptx::Program& prg, const Options& o,
                        const ptx::LoweredModule& mod) {
  return o.launch.to_launch(prg, mod.shared_bytes);
}

// --- request builders (shared by the local commands and submit) ------

front::CheckRequest make_check_request(const Options& o, bool validate) {
  front::CheckRequest r;
  r.file = o.file;
  r.source = read_file(o.file);
  r.kernel = o.kernel;
  r.launch = o.launch;
  r.explore = o.explore;
  r.expects = o.expects;
  r.require_independence = o.independent;
  r.exact_steps = o.exact_steps;
  r.por_oracle = o.por_oracle;
  r.insert_syncs = o.insert_syncs;
  r.full_validate = validate;
  r.profile = o.profile;
  return r;
}

front::LintRequest make_lint_request(const Options& o) {
  front::LintRequest r;
  r.file = o.file;
  r.source = read_file(o.file);
  r.kernel = o.kernel;
  r.races = o.lint_races;
  r.insert_syncs = o.insert_syncs;
  r.perf = o.lint_perf;
  return r;
}

front::EquivRequest make_equiv_request(const Options& o) {
  front::EquivRequest r;
  r.file = o.file;
  r.source = read_file(o.file);
  r.file_b = o.file_b;
  r.source_b = read_file(o.file_b);
  r.kernel = o.kernel;
  r.kernel_b = o.kernel_b;
  r.launch = o.launch;
  r.insert_syncs = o.insert_syncs;
  r.sym = o.sym;
  r.mode = o.eq_mode;
  r.normalize = o.eq_normalize;
  r.counterexample = o.eq_cex;
  r.cex_inputs = o.cex_inputs;
  return r;
}

/// One line of an equiv --batch pair list.
struct BatchPair {
  std::string file_a, file_b, kernel, kernel_b;
};

std::vector<BatchPair> read_batch(const std::string& path) {
  std::ifstream in(path);
  if (!in) usage(("cannot open " + path).c_str());
  std::vector<BatchPair> pairs;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ss(line);
    std::vector<std::string> tok;
    std::string t;
    while (ss >> t) {
      if (t[0] == '#') break;  // trailing comment
      tok.push_back(t);
    }
    if (tok.empty()) continue;
    if (tok.size() < 2 || tok.size() > 4) {
      usage(("batch line needs FILE_A FILE_B [KERNEL [KERNEL_B]]: " + line)
                .c_str());
    }
    BatchPair p;
    p.file_a = tok[0];
    p.file_b = tok[1];
    if (tok.size() > 2) p.kernel = tok[2];
    if (tok.size() > 3) p.kernel_b = tok[3];
    pairs.push_back(std::move(p));
  }
  return pairs;
}

/// The per-pair request: the batch line's files and kernels over the
/// command line's shared launch/sym/checker flags.
front::EquivRequest make_equiv_request_for(const Options& o,
                                           const BatchPair& p) {
  Options per = o;
  per.file = p.file_a;
  per.file_b = p.file_b;
  if (!p.kernel.empty()) per.kernel = p.kernel;
  if (!p.kernel_b.empty()) per.kernel_b = p.kernel_b;
  return make_equiv_request(per);
}

/// Print one request's results in the selected format and return the
/// unified exit code.
int emit_results(const Options& o, const std::vector<front::Result>& results) {
  if (o.format == "json") {
    std::printf("%s\n", front::to_json(results).c_str());
  } else {
    for (const front::Result& r : results) {
      std::printf("%s", front::render_text(r).c_str());
    }
  }
  return front::exit_code_of(results);
}

// --- local commands --------------------------------------------------

int cmd_dump(const Options& o, const ptx::LoweredModule& mod) {
  if (!o.kernel.empty()) {
    std::printf("%s", ptx::to_string(mod.kernel(o.kernel)).c_str());
    return 0;
  }
  for (const ptx::Program& k : mod.kernels) {
    std::printf("%s\n", ptx::to_string(k).c_str());
  }
  if (mod.shared_bytes) {
    std::printf("shared layout: %u bytes/block\n", mod.shared_bytes);
  }
  return 0;
}

int cmd_emit(const Options& o, const ptx::LoweredModule& mod) {
  std::printf("%s", ptx::emit_ptx(pick_kernel(mod, o)).c_str());
  return 0;
}

int cmd_lint(const Options& o) {
  return emit_results(o, front::run_lint(make_lint_request(o)));
}

int cmd_run(const Options& o, const ptx::LoweredModule& mod) {
  const ptx::Program& prg = pick_kernel(mod, o);
  sem::Launch launch = make_launch(prg, o, mod);
  sem::Machine m = launch.machine();
  auto sched = make_scheduler(o.sched);

  if (o.profile) {
    const check::Profile p =
        check::profile_run(prg, launch.config(), m, *sched,
                           o.explore.max_depth);
    std::printf("status: %s after %llu steps\n%s",
                to_string(p.run.status).c_str(),
                static_cast<unsigned long long>(p.run.steps),
                p.table().c_str());
    if (!p.run.message.empty()) std::printf("%s\n", p.run.message.c_str());
    return p.run.status == sched::RunResult::Status::Terminated ? 0 : 1;
  }

  const sched::RunResult r =
      sched::run(prg, launch.config(), m, *sched, o.explore.max_depth);
  std::printf("status: %s after %llu grid steps\n",
              to_string(r.status).c_str(),
              static_cast<unsigned long long>(r.steps));
  if (!r.message.empty()) std::printf("%s", r.message.c_str());
  if (!r.events.invalid_reads.empty() || !r.events.store_conflicts.empty()) {
    std::printf("diagnostics: %zu invalid reads, %zu lane conflicts\n",
                r.events.invalid_reads.size(),
                r.events.store_conflicts.size());
  }
  for (const auto& [addr, _] : o.expects) {
    std::printf("Global[%llu] = %llu\n",
                static_cast<unsigned long long>(addr),
                static_cast<unsigned long long>(
                    m.memory.load(mem::Space::Global, addr, 4)));
  }
  return r.terminated() ? 0 : 1;
}

/// Load the --resume checkpoint, or null.  CheckpointError propagates
/// to main's std::exception handler (exit 2) with the structured
/// "checkpoint: ..." message.  Distributed runs resume from the
/// coordinator manifest instead (see make_dist_explorer).
std::unique_ptr<sched::Checkpoint> load_resume(const Options& o) {
  if (o.resume_path.empty() || o.dist_workers != 0) return nullptr;
  return std::make_unique<sched::Checkpoint>(
      sched::Checkpoint::load(o.resume_path));
}

dist::DistOptions make_dist_options(const Options& o) {
  dist::DistOptions d;
  d.n_workers = o.dist_workers;
  d.listen = o.dist_listen;
  d.resume_manifest = o.resume_path;  // coordinator manifest, if any
  d.die_worker = o.dist_die_worker;
  d.die_after_states = o.dist_die_after;
  d.verbose = o.dist_verbose;
  return d;
}

void print_dist_stats(const dist::DistStats& s) {
  std::printf("distributed: %zu workers, %llu frontier msgs, "
              "skew %.2f, %llu restarts (%llu piecemeal), "
              "%llu checkpoint generations\n",
              s.workers.size(),
              static_cast<unsigned long long>(s.frontier_msgs), s.skew(),
              static_cast<unsigned long long>(s.restarts),
              static_cast<unsigned long long>(s.piecemeal_restarts),
              static_cast<unsigned long long>(s.generations));
  if (s.send_retries != 0 || s.connect_retries != 0) {
    std::printf("  transport: %llu send retries, %llu connect retries\n",
                static_cast<unsigned long long>(s.send_retries),
                static_cast<unsigned long long>(s.connect_retries));
  }
  for (std::size_t i = 0; i < s.workers.size(); ++i) {
    const dist::DistStats::PerWorker& w = s.workers[i];
    std::printf("  worker %zu: %llu states owned, %llu frontier sent, "
                "%llu resolves, %llu B out, %llu B in\n",
                i, static_cast<unsigned long long>(w.owned),
                static_cast<unsigned long long>(w.frontier_sent),
                static_cast<unsigned long long>(w.resolves_sent),
                static_cast<unsigned long long>(w.bytes_sent),
                static_cast<unsigned long long>(w.bytes_received));
  }
}

/// Wrap the distributed coordinator as a ModelCheckOptions::explorer.
/// The stats land in *stats_out (printed after the verdict).
check::ModelCheckOptions::explorer_type make_dist_explorer(
    const Options& o, std::shared_ptr<dist::DistStats> stats_out) {
  const dist::DistOptions dopts = make_dist_options(o);
  return [dopts, stats_out](const ptx::Program& prg,
                            const sem::KernelConfig& kc,
                            const sem::Machine& initial,
                            const sched::ExploreOptions& eopts) {
    dist::DistResult r =
        dist::explore_distributed(prg, kc, initial, eopts, dopts);
    *stats_out = std::move(r.stats);
    return std::move(r.result);
  };
}

int cmd_check(const Options& o, bool validate) {
  const front::CheckRequest req = make_check_request(o, validate);
  front::RunHooks hooks;
  hooks.stop_flag = &g_stop;
  const auto resume = load_resume(o);
  hooks.resume = resume.get();
  auto dist_stats = std::make_shared<dist::DistStats>();
  if (o.dist_workers != 0) hooks.explorer = make_dist_explorer(o, dist_stats);
  if (o.format == "text") {
    // The classic output ordering: the oracle reports before
    // exploration begins.
    hooks.on_por_oracle = [](std::size_t pcs) {
      std::printf("por oracle: %zu access pcs proven independent\n", pcs);
    };
  }
  install_signal_handlers();
  const front::Result r = front::run_check(req, hooks);
  std::vector<front::Result> results;
  results.push_back(r);
  const int code = emit_results(o, results);
  if (o.dist_workers != 0 && o.format == "text") {
    print_dist_stats(*dist_stats);
  }
  return finish_exit_code(code);
}

int cmd_races(const Options& o, const ptx::LoweredModule& mod) {
  const ptx::Program& prg = pick_kernel(mod, o);
  sem::Launch launch = make_launch(prg, o, mod);
  sem::Machine m = launch.machine();
  auto sched = make_scheduler(o.sched);
  check::RaceOptions ropts;
  ropts.max_steps = o.explore.max_depth;
  const check::RaceReport r =
      check::detect_races(prg, launch.config(), m, *sched, ropts);
  std::printf("run: %s; %s\n", to_string(r.run.status).c_str(),
              r.summary().c_str());
  for (const auto& race : r.races) {
    std::printf("  %s %s[%llu] threads %u/%u%s\n",
                race.write_write ? "W-W" : "R-W",
                ptx::to_string(race.space).c_str(),
                static_cast<unsigned long long>(race.addr), race.tid_a,
                race.tid_b, race.cross_block ? " (cross-block)" : "");
  }
  return r.racy() ? 1 : 0;
}

int cmd_dist_worker(const Options& o, const ptx::LoweredModule& mod) {
  if (o.dist_connect.empty()) {
    usage("dist-worker needs --dist-connect HOST:PORT");
  }
  const ptx::Program& prg = pick_kernel(mod, o);
  const sem::KernelConfig kc = o.launch.to_config();
  dist::Fd fd = dist::tcp_connect(o.dist_connect);
  dist::run_worker(fd.get(), prg, kc);
  return 0;
}

int cmd_equiv(const Options& o) {
  std::vector<front::Result> results;
  if (!o.batch.empty()) {
    const std::vector<BatchPair> pairs = read_batch(o.batch);
    if (pairs.empty()) usage("batch file has no pairs");
    for (const BatchPair& p : pairs) {
      results.push_back(front::run_equiv(make_equiv_request_for(o, p)));
    }
  } else {
    results.push_back(front::run_equiv(make_equiv_request(o)));
  }
  return emit_results(o, results);
}

// --- verification as a service ---------------------------------------

int cmd_serve(int argc, char** argv) {
  front::ServeOptions so;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (++i >= argc) usage(("missing value for " + a).c_str());
      return argv[i];
    };
    if (a == "--socket") so.unix_path = next();
    else if (a == "--tcp") so.tcp = next();
    else if (a == "--state-dir") so.state_dir = next();
    else if (a == "--serve-workers" || a == "--workers") {
      so.workers = parse_u32(a, next());
    }
    else if (a == "--queue-limit") so.queue_limit = parse_u64(next());
    else if (a == "--job-deadline") so.job_deadline_ms = parse_u64(next());
    else if (a == "--job-mem-limit") {
      so.job_mem_limit_bytes = parse_u64(next()) * (1ull << 20);
    }
    else if (a == "--cache-entries") so.cache_entries = parse_u64(next());
    else if (a == "--cache-bytes") {
      so.cache_bytes = parse_u64(next()) * (1ull << 20);
    }
    else if (a == "--checkpoint-every") {
      so.checkpoint_every_states = parse_u64(next());
    }
    else if (a == "--verbose") so.verbose = true;
    else usage(("unknown serve option " + a).c_str());
  }
  if (so.unix_path.empty() == so.tcp.empty()) {
    usage("serve needs exactly one of --socket PATH or --tcp HOST:PORT");
  }
  const std::string endpoint = so.unix_path.empty() ? so.tcp : so.unix_path;
  front::Server server(std::move(so));
  install_signal_handlers();
  server.start();
  const front::ServeStats boot = server.stats();
  std::printf("serve: listening on %s (%llu jobs recovered)\n",
              endpoint.c_str(),
              static_cast<unsigned long long>(boot.jobs_recovered));
  std::fflush(stdout);
  while (!g_stop.load(std::memory_order_relaxed) &&
         !server.shutdown_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  server.stop();
  const front::ServeStats s = server.stats();
  std::printf("serve: done (%llu requests, %llu jobs, %llu cache hits)\n",
              static_cast<unsigned long long>(s.requests),
              static_cast<unsigned long long>(s.jobs_run),
              static_cast<unsigned long long>(s.cache.hits));
  return finish_exit_code(0);
}

/// Map an exhausted retryable transport failure to the typed
/// "server unreachable" exit (docs/robustness.md).
int report_unreachable(const dist::DistError& e) {
  std::fprintf(stderr, "cacval: server unreachable: %s\n", e.what());
  return front::kExitUnreachable;
}

bool retryable(const dist::DistError& e) {
  switch (e.kind()) {
    case dist::DistError::Kind::Io:
    case dist::DistError::Kind::PeerDied:
    case dist::DistError::Kind::Timeout:
      return true;
    default:
      return false;
  }
}

int worse_exit(int a, int b);
int submit_request(const Options& o, bool envelope,
                   const front::Request& req);

int cmd_submit(int argc, char** argv) {
  if (argc < 3) usage("submit needs a subcommand");
  const std::string sub = argv[2];
  if (sub == "ping" || sub == "stats" || sub == "shutdown") {
    std::string to;
    std::uint64_t timeout_ms = 30000;
    for (int i = 3; i < argc; ++i) {
      const std::string a = argv[i];
      if (a == "--to" && i + 1 < argc) to = argv[++i];
      else if (a == "--timeout" && i + 1 < argc) {
        timeout_ms = parse_u64(argv[++i]);
      }
      else usage(("unknown option " + a).c_str());
    }
    if (to.empty()) usage("submit needs --to ENDPOINT");
    try {
      front::Client client = front::Client::connect(to, dist::RetryPolicy{});
      const front::Client::Reply reply =
          client.call("{\"command\":\"" + sub + "\"}", {},
                      static_cast<int>(timeout_ms));
      std::printf("%s\n", reply.raw.c_str());
      return reply.doc.str_or("status", "") == "ok" ? 0 : front::kExitUsage;
    } catch (const dist::DistError& e) {
      if (retryable(e)) return report_unreachable(e);
      throw;
    }
  }

  // Reuse the regular parser with "submit" stripped, so submit accepts
  // exactly the flags of the local command (plus --envelope, which is
  // submit-only and filtered out here).
  bool envelope = false;
  std::vector<char*> filtered;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--envelope") == 0) {
      envelope = true;
    } else {
      filtered.push_back(argv[i]);
    }
  }
  const Options o =
      parse_args(static_cast<int>(filtered.size()), filtered.data());
  if (o.to.empty()) usage("submit needs --to ENDPOINT");
  std::vector<front::Request> reqs;
  if (sub == "check") reqs.push_back(make_check_request(o, false));
  else if (sub == "validate") reqs.push_back(make_check_request(o, true));
  else if (sub == "lint") reqs.push_back(make_lint_request(o));
  else if (sub == "equiv" && !o.batch.empty()) {
    // Batch submit: one request per pair, so every pair lands in the
    // server's verdict cache under its own key.
    const std::vector<BatchPair> pairs = read_batch(o.batch);
    if (pairs.empty()) usage("batch file has no pairs");
    for (const BatchPair& p : pairs) {
      reqs.push_back(make_equiv_request_for(o, p));
    }
  }
  else if (sub == "equiv") reqs.push_back(make_equiv_request(o));
  else usage(("unknown submit subcommand " + sub).c_str());

  int worst = 0;
  for (const front::Request& req : reqs) {
    worst = worse_exit(worst, submit_request(o, envelope, req));
  }
  return worst;
}

/// Exit-code severity for aggregating a batch of submits: transport
/// failures dominate, then usage, finding, limit, clean — the same
/// ordering front::exit_code_of uses, extended with the serve codes.
int worse_exit(int a, int b) {
  const auto rank = [](int c) {
    switch (c) {
      case front::kExitUnreachable: return 5;
      case front::kExitBusy: return 4;
      case front::kExitUsage: return 3;
      case front::kExitFinding: return 2;
      case front::kExitLimit: return 1;
      default: return 0;
    }
  };
  return rank(a) >= rank(b) ? a : b;
}

int submit_request(const Options& o, bool envelope,
                   const front::Request& req) {
  // Keepalive: with a timeout but no user-requested progress cadence,
  // ask the server for sparse progress events anyway — a long
  // exploration then keeps resetting the inactivity deadline, so
  // --timeout distinguishes "slow job" from "wedged server".  The
  // cadence rides in the envelope, not the request body, so it never
  // touches the cache key or the verdict.
  const bool want_events = o.progress != 0;
  std::uint64_t progress = o.progress;
  if (progress == 0 && o.timeout_ms != 0) progress = 1u << 16;

  std::string payload = front::to_json(req);
  if (progress != 0) {
    // The progress cadence rides in the request envelope, next to the
    // request fields the server journals.
    payload.insert(payload.size() - 1,
                   ",\"progress\":" + std::to_string(progress));
  }

  front::SubmitOptions sopts;
  sopts.timeout_ms = static_cast<int>(o.timeout_ms);
  sopts.max_attempts = static_cast<int>(o.retries);
  front::SubmitOutcome outcome;
  try {
    outcome = front::submit_with_retry(
        o.to, payload, sopts, [want_events](const front::JsonValue& ev) {
          if (!want_events && ev.str_or("event", "") == "progress") return;
          std::fprintf(stderr, "event: %s states=%llu\n",
                       ev.str_or("event", "?").c_str(),
                       static_cast<unsigned long long>(
                           ev.u64_or("states", 0)));
        });
  } catch (const dist::DistError& e) {
    if (retryable(e)) return report_unreachable(e);
    throw;
  }
  const front::Client::Reply& reply = outcome.reply;
  if (outcome.reconnects != 0) {
    std::fprintf(stderr, "cacval: reconnected %llu time(s)\n",
                 static_cast<unsigned long long>(outcome.reconnects));
  }
  if (reply.doc.str_or("status", "") == "busy") {
    std::fprintf(stderr, "cacval: server busy (retry after %llu ms): %s\n",
                 static_cast<unsigned long long>(
                     reply.doc.u64_or("retry_after_ms", 250)),
                 reply.doc.str_or("error", "queue full").c_str());
    return front::kExitBusy;
  }
  if (reply.doc.str_or("status", "") != "ok") {
    std::fprintf(stderr, "cacval: server error: %s\n",
                 reply.doc.str_or("error", "unknown").c_str());
    return static_cast<int>(
        reply.doc.u64_or("exit_code", front::kExitUsage));
  }
  if (envelope) {
    // The full response envelope (status/cached/key/elapsed_us/...),
    // for scripts that care about cache behaviour, not just the
    // verdict (tools/serve_crash_drill.py's speedup assertion).
    std::printf("%s\n", reply.raw.c_str());
    return static_cast<int>(reply.doc.u64_or("exit_code", front::kExitUsage));
  }
  // Print the results document verbatim — the same bytes a local
  // --format=json run would print (and what the crash drill compares).
  const std::string tag = "\"results\":";
  const std::size_t at = reply.raw.find(tag);
  if (at != std::string::npos && !reply.raw.empty() &&
      reply.raw.back() == '}') {
    std::printf("%s\n",
                reply.raw
                    .substr(at + tag.size(),
                            reply.raw.size() - at - tag.size() - 1)
                    .c_str());
  } else {
    std::printf("%s\n", reply.raw.c_str());
  }
  return static_cast<int>(reply.doc.u64_or("exit_code", front::kExitUsage));
}

}  // namespace

int main(int argc, char** argv) {
  support::fault_init_from_env();
  try {
    if (argc >= 2 && std::strcmp(argv[1], "serve") == 0) {
      return cmd_serve(argc, argv);
    }
    if (argc >= 2 && std::strcmp(argv[1], "submit") == 0) {
      return cmd_submit(argc, argv);
    }
    const Options o = parse_args(argc, argv);

    // Library-backed commands: the module is lowered inside front::.
    if (o.command == "lint") return cmd_lint(o);
    if (o.command == "check") return cmd_check(o, false);
    if (o.command == "validate") return cmd_check(o, true);
    if (o.command == "equiv") return cmd_equiv(o);

    // Tool-local commands that operate on the lowered module directly.
    ptx::LowerOptions lopts;
    lopts.insert_syncs = o.insert_syncs;
    const ptx::LoweredModule mod = ptx::load_ptx(read_file(o.file), lopts);
    if (o.command == "dump") return cmd_dump(o, mod);
    if (o.command == "emit") return cmd_emit(o, mod);
    if (o.command == "run") return cmd_run(o, mod);
    if (o.command == "races") return cmd_races(o, mod);
    if (o.command == "dist-worker") return cmd_dist_worker(o, mod);
    usage(("unknown command " + o.command).c_str());
  } catch (const PtxError& e) {
    std::fprintf(stderr, "cacval: PTX error: %s\n", e.what());
    return front::kExitUsage;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cacval: %s\n", e.what());
    return front::kExitUsage;
  }
}
