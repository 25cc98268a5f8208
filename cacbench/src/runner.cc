#include "runner.h"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "answers.h"
#include "front/front.h"
#include "front/serve.h"
#include "layers.h"
#include "metrics.h"
#include "sched/explore.h"
#include "trace.h"
#include "workloads.h"

namespace cacbench {

namespace front = cac::front;
namespace fs = std::filesystem;

namespace {

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
/// Templates run as warm-up in each set-up of the explore workloads
/// (static-batch warms every template: they take milliseconds).
constexpr std::size_t kWarmTemplates = 2;
/// explore-mt requests re-run on the serial engine in the traced run.
constexpr std::size_t kAgreementSample = 2;
/// Requests the non-serve workloads submit to a probe server (traced).
constexpr std::size_t kServeProbeJobs = 3;
/// Checkpoint cadence of the serve-agent daemon (states): the
/// ServeOptions default, as deployed.
constexpr std::uint64_t kServeCheckpointEvery = 4096;
constexpr int kCallTimeoutMs = 60000;
/// How long a single-threaded caller stays on one CPU (see window()).
constexpr double kRotateSeconds = 0.25;

struct Tally {
  std::vector<double> lat_ms;
  /// Direct workloads: latency and states of every occurrence, by
  /// template.
  std::map<std::string, std::vector<double>> tmpl_ms, tmpl_states;
  std::vector<double> hit_ms, miss_ms;  // serve replies by cache outcome
  std::uint64_t attempted = 0, failed = 0, states = 0;
  double wall_s = 0;
  std::vector<std::string> errors;

  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }
  void merge(const Tally& o) {
    lat_ms.insert(lat_ms.end(), o.lat_ms.begin(), o.lat_ms.end());
    for (const auto& [k, v] : o.tmpl_ms) {
      tmpl_ms[k].insert(tmpl_ms[k].end(), v.begin(), v.end());
    }
    for (const auto& [k, v] : o.tmpl_states) {
      tmpl_states[k].insert(tmpl_states[k].end(), v.begin(), v.end());
    }
    hit_ms.insert(hit_ms.end(), o.hit_ms.begin(), o.hit_ms.end());
    miss_ms.insert(miss_ms.end(), o.miss_ms.begin(), o.miss_ms.end());
    attempted += o.attempted;
    failed += o.failed;
    states += o.states;
    wall_s += o.wall_s;
    for (const std::string& e : o.errors) {
      if (errors.size() < 8) errors.push_back(e);
    }
  }
};

const char* runner_span(Kind k) {
  switch (k) {
    case Kind::Check:
    case Kind::Validate: return "front.run_check";
    case Kind::Lint: return "front.run_lint";
    case Kind::Equiv: return "front.run_equiv";
  }
  return "front.run";
}

/// One request through the front runner, timed and checked.
void run_job(const Job& job, Tally& t, Tracer* tracer, std::uint64_t rid) {
  std::uint64_t explored = 0;
  front::RunHooks hooks;
  // Equiv counterexample replays report no states in their result, so
  // they are counted at the explorer; the traced run also spans it.
  if (job.kind == Kind::Equiv || tracer != nullptr) {
    hooks.explorer = [&explored, tracer, rid](
                         const cac::ptx::Program& p, const cac::sem::KernelConfig& kc,
                         const cac::sem::Machine& m,
                         const cac::sched::ExploreOptions& o) {
      Scope s(tracer, "sched.explore", rid);
      cac::sched::ExploreResult r = cac::sched::explore(p, kc, m, o);
      explored += r.states_visited;
      return r;
    };
  }
  std::vector<front::Result> results;
  std::string err;
  const double t0 = now_s();
  try {
    Scope s(tracer, runner_span(job.kind), rid);
    results = front::run(job.request, hooks);
  } catch (const std::exception& e) {
    err = std::string("threw: ") + e.what();
  }
  const double ms = (now_s() - t0) * 1e3;
  t.lat_ms.push_back(ms);
  ++t.attempted;
  const std::vector<ResultView> views = view_of(results);
  if (err.empty()) err = verify(job.answer, views);
  if (!err.empty()) {
    t.fail(job.tmpl + ": " + err);
    return;
  }
  std::uint64_t states = explored;
  if (job.kind != Kind::Equiv) {
    states = 0;
    for (const ResultView& v : views) states += v.states;
  }
  t.states += states;
  t.tmpl_ms[job.tmpl].push_back(ms);
  t.tmpl_states[job.tmpl].push_back(static_cast<double>(states));
}

/// The run's quietest round: each template's fastest occurrence and its
/// median states.  One caller runs the rounds back to back, so a round's
/// time is the sum of its requests' times.  On a shared host other
/// tenants slow every CPU by up to 1.7x for seconds at a time; a
/// template's fastest occurrence is the one they slowed least, and it
/// still moves with every change to the program's own work.
struct QuietRound {
  std::vector<double> lat_ms;  // one per template
  double ms = 0;
  double states = 0;
};

QuietRound quiet_round(const Tally& t) {
  QuietRound r;
  for (const auto& [name, ms] : t.tmpl_ms) {
    const double m = *std::min_element(ms.begin(), ms.end());
    r.lat_ms.push_back(m);
    r.ms += m;
    r.states += median(t.tmpl_states.at(name));
  }
  return r;
}

/// One serve submission, timed and checked.
void submit(front::Client& client, const Submission& s, Tally& t,
            Tracer* tracer, std::uint64_t rid) {
  std::string err;
  bool cached = false;
  std::uint64_t states = 0;
  const double t0 = now_s();
  try {
    Scope span(tracer, "front.serve.call", rid);
    const front::Client::Reply r = client.call(s.payload, {}, kCallTimeoutMs);
    span.close();
    const std::string status = r.doc.str_or("status", "");
    if (status != "ok") {
      err = "status " + status + ": " + r.doc.str_or("error", "");
    } else {
      cached = r.doc.bool_or("cached", false);
      const front::JsonValue* res = r.doc.get("results");
      const std::vector<ResultView> views =
          res != nullptr ? view_of(*res) : std::vector<ResultView>{};
      err = verify(s.answer, views);
      if (!cached) {
        for (const ResultView& v : views) states += v.states;
      }
    }
  } catch (const std::exception& e) {
    err = std::string("threw: ") + e.what();
  }
  const double ms = (now_s() - t0) * 1e3;
  ++t.attempted;
  t.lat_ms.push_back(ms);
  (cached ? t.hit_ms : t.miss_ms).push_back(ms);
  if (!err.empty()) {
    t.fail(s.tmpl + ": " + err);
  } else {
    t.states += states;
  }
}

/// A refutation first (so a short decomposition still replays a real
/// counterexample), then the seeded order.
std::vector<Job> refutation_first(std::vector<Job> jobs) {
  const auto it = std::find_if(jobs.begin(), jobs.end(),
                               [](const Job& j) { return j.refutation; });
  if (it != jobs.end()) std::rotate(jobs.begin(), it, it + 1);
  return jobs;
}

/// An in-process daemon on an AF_UNIX socket under `dir`, with a state
/// directory (journal, cache persistence, periodic checkpoints).
struct Daemon {
  Daemon(const std::string& dir, std::uint32_t workers) : dir_(dir) {
    std::error_code ec;
    fs::remove_all(dir_, ec);
    fs::create_directories(dir_);
    front::ServeOptions so;
    so.unix_path = dir_ + "/sock";
    so.workers = workers;
    so.state_dir = dir_ + "/state";
    so.checkpoint_every_states = kServeCheckpointEvery;
    server = std::make_unique<front::Server>(std::move(so));
    server->start();
  }
  ~Daemon() {
    server->stop();
    server.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  front::Client connect() const { return front::Client::connect(dir_ + "/sock"); }

  std::string dir_;
  std::unique_ptr<front::Server> server;
};

/// The CPUs this process may run on.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) out.push_back(c);
    }
  }
  return out;
}

/// Restrict the calling thread to `cpus` (best effort: a refusal only
/// leaves the thread where the kernel put it).
void pin_thread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

class Loop {
 public:
  virtual ~Loop() = default;
  /// The k-th set-up; each replaces the previous one, the last stays.
  virtual void setup(int k, Tally& t) = 0;
  /// Closed loop for at least `seconds` of measured wall time.
  virtual void window(double seconds, Tracer* tracer, Tally& t) = 0;
  /// Requests for the per-layer decomposition, in probing order.
  virtual std::vector<Job> sample() = 0;
  /// Serve counters, where the workload has a daemon.
  virtual bool serve_stats(front::ServeStats*) const { return false; }
};

/// explore-serial, explore-mt, static-batch: requests straight through
/// the front runners, one at a time (one closed-loop caller).
class DirectLoop : public Loop {
 public:
  explicit DirectLoop(const RunOptions& o) : o_(o) {}

  void setup(int, Tally& t) override {
    corpus_ = Corpus::load(o_.root);
    Rng rng(o_.seed);
    const std::vector<Job> jobs = instantiate(o_.workload, corpus_, rng);
    const std::size_t warm =
        o_.workload == "static-batch" ? jobs.size()
                                      : std::min(kWarmTemplates, jobs.size());
    for (std::size_t i = 0; i < warm; ++i) run_job(jobs[i], t, nullptr, 0);
  }

  void window(double seconds, Tracer* tracer, Tally& t) override {
    // Where the caller's thread does all the work, move it to the next
    // CPU every kRotateSeconds: on a shared host each CPU turns fast or
    // slow for seconds at a time, and the kernel keeps a busy thread on
    // one CPU.  explore-mt's workers inherit the caller's CPU mask, so
    // it is left alone.
    const bool rotate = o_.workload != "explore-mt" && cpus_.size() > 1;
    // Whole rounds only, so every window runs the same mix.
    double spent = 0, on_cpu = kRotateSeconds;
    while (spent < seconds) {
      if (rotate && on_cpu >= kRotateSeconds) {
        pin_thread({cpus_[next_cpu_++ % cpus_.size()]});
        on_cpu = 0;
      }
      const std::vector<Job> jobs = round(o_.workload, corpus_, o_.seed, next_round_++);
      const double r0 = now_s();
      for (const Job& j : jobs) run_job(j, t, tracer, ++rid_);
      const double dt = now_s() - r0;
      spent += dt;
      on_cpu += dt;
    }
    if (rotate) pin_thread(cpus_);
    t.wall_s += spent;
  }

  std::vector<Job> sample() override {
    return refutation_first(round(o_.workload, corpus_, o_.seed, 1u << 20));
  }

 private:
  const RunOptions& o_;
  const std::vector<int> cpus_ = allowed_cpus();
  Corpus corpus_;
  std::uint64_t next_round_ = 0;
  std::uint64_t next_cpu_ = 0;
  std::uint64_t rid_ = 0;
};

/// serve-agent: an in-process daemon with 2 workers and a state
/// directory, two client connections in a closed loop each.
class ServeLoop : public Loop {
 public:
  explicit ServeLoop(const RunOptions& o) : o_(o) {}

  void setup(int k, Tally& t) override {
    clients_.clear();
    daemon_.reset();
    corpus_ = Corpus::load(o_.root);
    daemon_ = std::make_unique<Daemon>(
        o_.work_dir + "/serve-" + std::to_string(::getpid()) + "-" +
            std::to_string(k),
        2);
    clients_.push_back(daemon_->connect());
    clients_.push_back(daemon_->connect());
    traffic_ = std::make_unique<AgentTraffic>(corpus_, o_.seed);
    // Prime the pool so resubmits have verdicts to hit.
    for (const Submission& s : traffic_->prime()) submit(clients_[0], s, t, nullptr, 0);
  }

  void window(double seconds, Tracer* tracer, Tally& t) override {
    // Two client threads for the whole window (threads made per round
    // would each pick a malloc arena and make peak RSS depend on
    // timing).  A round ends at a barrier whose completion step books
    // the round's time and deals the next round.
    std::pair<std::vector<Submission>, std::vector<Submission>> subs =
        traffic_->round();
    double spent = 0;
    double r0 = now_s();
    bool stop = false;
    std::string deal_error;
    auto deal = [&]() noexcept {
      spent += now_s() - r0;
      stop = spent >= seconds;
      if (!stop) {
        try {
          subs = traffic_->round();
        } catch (const std::exception& e) {
          deal_error = e.what();
          stop = true;
        }
      }
      r0 = now_s();
    };
    std::barrier round_end(2, deal);
    std::barrier shared_gate(2);
    Tally t0, t1;
    auto client_loop = [&](front::Client& c, bool first, Tally& out) {
      while (true) {
        for (const Submission& s : first ? subs.first : subs.second) {
          // Both clients send the shared novel job at the same moment.
          if (s.mix == Submission::Mix::Shared) shared_gate.arrive_and_wait();
          submit(c, s, out, tracer, rid_.fetch_add(1) + 1);
        }
        round_end.arrive_and_wait();
        if (stop) return;
      }
    };
    {
      std::jthread a(client_loop, std::ref(clients_[0]), true, std::ref(t0));
      std::jthread b(client_loop, std::ref(clients_[1]), false, std::ref(t1));
    }
    t.merge(t0);
    t.merge(t1);
    if (!deal_error.empty()) t.fail("traffic generator: " + deal_error);
    t.wall_s += spent;
  }

  std::vector<Job> sample() override {
    Rng rng(o_.seed ^ 0x9a3b1e);
    return refutation_first(instantiate("serve-agent", corpus_, rng));
  }

  bool serve_stats(front::ServeStats* s) const override {
    *s = daemon_->server->stats();
    return true;
  }

  ~ServeLoop() override {
    clients_.clear();
    daemon_.reset();
  }

 private:
  const RunOptions& o_;
  Corpus corpus_;
  std::unique_ptr<Daemon> daemon_;
  std::vector<front::Client> clients_;
  std::unique_ptr<AgentTraffic> traffic_;
  std::atomic<std::uint64_t> rid_{0};
};

void add_serve_metrics(Report& r, const Tally& t, const front::ServeStats& a,
                       const front::ServeStats& b) {
  const double hits = static_cast<double>(b.cache.hits - a.cache.hits);
  const double misses = static_cast<double>(b.cache.misses - a.cache.misses);
  r.add("front.cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0,
        "ratio", static_cast<std::uint64_t>(hits + misses));
  r.add("front.serve.jobs_run", static_cast<double>(b.jobs_run - a.jobs_run),
        "count", 1);
  r.add("front.serve.jobs_deduped",
        static_cast<double>(b.jobs_deduped - a.jobs_deduped), "count", 1);
  r.add("front.serve.shed_requests",
        static_cast<double>(b.shed_requests - a.shed_requests), "count", 1);
  r.add("front.serve.rtt_hit_ms", median(t.hit_ms), "ms", t.hit_ms.size());
  r.add("front.serve.rtt_miss_ms", median(t.miss_ms), "ms", t.miss_ms.size());
}

/// Non-serve workloads: submit a few of the workload's own requests to
/// a probe daemon, once cold and once cached.
void serve_probe(const RunOptions& o, const std::vector<Job>& jobs,
                 Tracer* tracer, Report& r, Tally& t) {
  Daemon d(o.work_dir + "/serve-probe-" + std::to_string(::getpid()), 2);
  front::Client c = d.connect();
  const front::ServeStats before = d.server->stats();
  Tally probe;
  for (std::size_t i = 0; i < jobs.size() && i < kServeProbeJobs; ++i) {
    Submission s;
    s.payload = front::to_json(jobs[i].request);
    s.answer = jobs[i].answer;
    s.tmpl = jobs[i].tmpl;
    submit(c, s, probe, tracer, 1000000 + 2 * i);
    submit(c, s, probe, tracer, 1000001 + 2 * i);
  }
  add_serve_metrics(r, probe, before, d.server->stats());
  t.attempted += probe.attempted;
  t.failed += probe.failed;
  for (const std::string& e : probe.errors) t.errors.push_back(e);
}

void print_errors(const Tally& t) {
  for (const std::string& e : t.errors) std::printf("  FAILED %s\n", e.c_str());
}

}  // namespace

int run_benchmark(const RunOptions& o) {
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), o.workload) == names.end()) {
    std::fprintf(stderr, "cacbench: unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  fs::create_directories(o.work_dir);
  const bool serve = o.workload == "serve-agent";
  std::unique_ptr<Loop> loop;
  if (serve) {
    loop = std::make_unique<ServeLoop>(o);
  } else {
    loop = std::make_unique<DirectLoop>(o);
  }

  std::printf("cacbench workload=%s seed=%llu seconds=%g trace=%d\n",
              o.workload.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0);
  Tally total;
  std::vector<double> setup_s;
  auto set_up = [&](int k) {
    const double t0 = now_s();
    loop->setup(k, total);
    setup_s.push_back(now_s() - t0);
  };

  Report rep;
  if (!o.trace) {
    // The k-th set-up comes before the k-th slice of the measured time,
    // so their median samples the host across the whole run rather than
    // in its first seconds.  Each slice runs until the run's measured
    // time reaches its share, so the slices' overrunning last rounds do
    // not add up.
    Tally t;
    for (int k = 0; k < kSetups; ++k) {
      set_up(k);
      const double left = o.seconds * (k + 1) / kSetups - t.wall_s;
      if (left > 0) loop->window(left, nullptr, t);
    }
    const std::uint64_t setup_verdicts = total.attempted;
    if (serve) {
      // Two concurrent clients: throughput is verdicts over wall time,
      // latency percentiles are over every reply.
      const double n = static_cast<double>(t.attempted);
      rep.add("verdicts_per_s", n / t.wall_s, "1/s", t.attempted);
      rep.add("verdict_p50_ms", percentile(t.lat_ms, 50), "ms", t.lat_ms.size());
      rep.add("verdict_p90_ms", percentile(t.lat_ms, 90), "ms", t.lat_ms.size());
      rep.add("states_per_s", static_cast<double>(t.states) / t.wall_s, "1/s",
              t.attempted);
    } else {
      const QuietRound tr = quiet_round(t);
      const double n = static_cast<double>(tr.lat_ms.size());
      rep.add("verdicts_per_s", n / (tr.ms / 1e3), "1/s", t.attempted);
      rep.add("verdict_p50_ms", hd_percentile(tr.lat_ms, 50), "ms", t.attempted);
      rep.add("verdict_p90_ms", hd_percentile(tr.lat_ms, 90), "ms", t.attempted);
      rep.add("states_per_s", tr.states / (tr.ms / 1e3), "1/s", t.attempted);
    }
    rep.add("setup_s", median(setup_s), "s", setup_s.size());
    if (!t.tmpl_ms.empty()) {
      std::printf("per template (latency over occurrences: min, median, max):\n");
    }
    for (const auto& [name, ms] : t.tmpl_ms) {
      std::printf("  %-44s %9.0f states %10.3f %10.3f %10.3f ms  (n=%zu)\n",
                  name.c_str(), median(t.tmpl_states.at(name)), percentile(ms, 0),
                  median(ms), percentile(ms, 100), ms.size());
    }
    std::printf("end-to-end (%.2f s measured, %llu verdicts, %llu in set-up):\n",
                t.wall_s, static_cast<unsigned long long>(t.attempted),
                static_cast<unsigned long long>(setup_verdicts));
    std::printf("%s", rep.human().c_str());
    std::printf("  %-36s %14.6g ms      (n=%zu)\n", "verdict_p99_ms (all replies)",
                percentile(t.lat_ms, 99), t.lat_ms.size());
    std::printf("  %-36s %14.6g MB      (n=1)\n", "peak_rss_mb (set-up included)",
                peak_rss_mb());
    std::printf("  %-36s %14.6g 1/s     (n=%llu)\n", "verdicts/wall s",
                static_cast<double>(t.attempted) / t.wall_s,
                static_cast<unsigned long long>(t.attempted));
    if (serve) {
      std::printf("  %-36s %14.6g share   (n=%zu)\n", "cache hit share",
                  t.lat_ms.empty() ? 0.0
                                   : static_cast<double>(t.hit_ms.size()) /
                                         static_cast<double>(t.lat_ms.size()),
                  t.lat_ms.size());
    }
    total.merge(t);
  } else {
    // Untraced and traced windows of a quarter of the run each (their
    // ratio is the tracing overhead), then the decomposition for the
    // remaining half.
    for (int k = 0; k < kSetups; ++k) set_up(k);
    Tally plain, traced;
    loop->window(o.seconds / 4, nullptr, plain);
    Tracer tracer;
    front::ServeStats before, after;
    loop->serve_stats(&before);
    loop->window(o.seconds / 4, &tracer, traced);
    const double plain_vps = static_cast<double>(plain.attempted) / plain.wall_s;
    const double traced_vps =
        static_cast<double>(traced.attempted) / traced.wall_s;
    if (loop->serve_stats(&after)) add_serve_metrics(rep, traced, before, after);

    LayerProbe probe(&tracer, o.work_dir, o.seed);
    const std::vector<Job> jobs = loop->sample();
    const double budget_end = now_s() + o.seconds / 2;
    std::uint64_t rid = 1u << 30;
    for (const Job& j : jobs) {
      if (probe.requests() != 0 && now_s() > budget_end) break;
      probe.probe(j, ++rid);
    }
    probe.report(rep);
    if (!serve) serve_probe(o, jobs, &tracer, rep, total);

    // Engine agreement: explore-mt verdicts must be byte-identical on
    // the serial engine.
    std::uint64_t compared = 0, mismatches = 0;
    if (o.workload == "explore-mt") {
      Rng pick(o.seed ^ 0xa9ee);
      std::vector<Job> pool = jobs;
      for (std::size_t i = 0; i < kAgreementSample && !pool.empty(); ++i) {
        const std::size_t at = pick.below(static_cast<std::uint32_t>(pool.size()));
        const Job j = pool[at];
        pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(at));
        auto serial = std::get<front::CheckRequest>(j.request);
        serial.explore.num_threads = 0;
        Scope s(&tracer, "agreement", ++rid);
        ++compared;
        ++total.attempted;
        try {
          const std::string par = front::to_json(front::run(j.request));
          const std::string ser = front::to_json(front::run(front::Request{serial}));
          if (par != ser) {
            ++mismatches;
            total.fail(j.tmpl + ": parallel and serial verdict JSON differ");
          }
        } catch (const std::exception& e) {
          ++mismatches;
          total.fail(j.tmpl + ": engine agreement threw: " + e.what());
        }
      }
    }
    rep.add("sched.engine_compared", static_cast<double>(compared), "count", compared);
    rep.add("sched.engine_mismatches", static_cast<double>(mismatches), "count",
            compared);
    rep.add("trace.overhead_share", plain_vps > 0 ? 1 - traced_vps / plain_vps : 0,
            "share", traced.attempted);
    rep.add("trace.spans", static_cast<double>(tracer.spans()), "count", 1);

    const std::string trace_path = o.work_dir + "/trace-" + o.workload + "-seed" +
                                   std::to_string(o.seed) + ".json";
    const bool wrote = tracer.write_chrome_json(trace_path);
    std::printf("per-layer (%llu requests decomposed, %llu probe errors):\n",
                static_cast<unsigned long long>(probe.requests()),
                static_cast<unsigned long long>(probe.errors()));
    std::printf("%s", rep.human().c_str());
    std::printf("  traced %.6g verdicts/s vs untraced %.6g verdicts/s\n",
                traced_vps, plain_vps);
    std::printf("  trace file: %s%s\n", trace_path.c_str(),
                wrote ? "" : " (NOT WRITTEN)");
    total.merge(plain);
    total.merge(traced);
    if (!wrote) total.fail("trace file not written");
  }

  loop.reset();
  print_errors(total);
  const double failed_frac =
      total.attempted == 0
          ? 1.0
          : static_cast<double>(total.failed) / static_cast<double>(total.attempted);
  std::printf("  %-36s %14.6g share   (n=%llu)\n", "failed_frac", failed_frac,
              static_cast<unsigned long long>(total.attempted));
  std::printf("%s\n", rep.json(total.failed == 0, std::max<std::uint64_t>(1, total.attempted),
                               total.failed)
                          .c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace cacbench
