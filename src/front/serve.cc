#include "front/serve.h"

#include <dirent.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <thread>
#include <utility>

#include "dist/wire.h"
#include "sched/checkpoint.h"
#include "support/io.h"

namespace cac::front {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t elapsed_us(Clock::time_point t0) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - t0)
          .count());
}

/// Blocking read of one complete frame; false on orderly EOF or a
/// dead peer.  Corrupt bytes throw DistError(Corrupt) via the reader.
bool read_frame_blocking(int fd, dist::FrameReader& fr, dist::Frame& out) {
  for (;;) {
    if (std::optional<dist::Frame> f = fr.next()) {
      out = std::move(*f);
      return true;
    }
    char buf[1 << 16];
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n > 0) {
      fr.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return false;
    if (errno == EINTR) continue;
    return false;
  }
}

void send_frame(int fd, std::mutex& write_mu, dist::FrameType type,
                std::string_view payload) {
  const std::string bytes = dist::encode_frame(type, payload);
  std::lock_guard<std::mutex> lock(write_mu);
  dist::send_all(fd, bytes.data(), bytes.size());
}

std::string make_error(const std::string& message, int exit_code) {
  JsonWriter w;
  w.begin_obj()
      .key("status").value("error")
      .key("error").value(message)
      .key("exit_code").value(exit_code)
      .end_obj();
  return w.take();
}

std::string make_response(bool cached, const CacheKey& key,
                          std::uint64_t micros,
                          const VerdictCache::Entry& entry) {
  JsonWriter w;
  w.begin_obj()
      .key("status").value("ok")
      .key("cached").value(cached)
      .key("key").value(key.hex())
      .key("elapsed_us").value(micros)
      .key("exit_code").value(entry.exit_code)
      .key("results").raw(entry.results_json)
      .end_obj();
  return w.take();
}

void mkdir_quiet(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST && errno != ENOENT) {
    std::perror(("serve: mkdir " + path).c_str());
  }
}

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

/// The typed load-shedding reply (docs/robustness.md): retryable, with
/// an advertised backoff, mapped to kExitBusy by clients.
std::string make_busy(const std::string& message) {
  JsonWriter w;
  w.begin_obj()
      .key("status").value("busy")
      .key("error").value(message)
      .key("retry_after_ms").value(250)
      .key("exit_code").value(static_cast<int>(kExitBusy))
      .end_obj();
  return w.take();
}

/// Is the client on `fd` still there?  A connection waiting on a slow
/// job probes with MSG_PEEK so a vanished client can be reaped instead
/// of anchoring a job nobody will read.
bool client_alive(int fd) {
  char b = 0;
  const ssize_t n = ::recv(fd, &b, 1, MSG_PEEK | MSG_DONTWAIT);
  if (n > 0) return true;                              // pipelined bytes
  if (n == 0) return false;                            // orderly EOF
  return errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR;
}

}  // namespace

/// One admitted verification job.  Shared by the worker executing it
/// and every connection waiting on it (in-flight dedup).
struct Server::Job {
  CacheKey key;
  Request req;
  std::string req_json;
  std::uint64_t progress_every = 0;
  bool recovered = false;  // re-enqueued from the journal at startup

  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  bool ok = false;
  /// A worker has dequeued the job (it can no longer be reaped).
  bool running = false;
  /// Connections currently blocked on this job.  When the last one
  /// vanishes before a worker picks the job up, the job is reaped.
  int waiters = 0;
  std::string error;
  /// Exit code carried by an error outcome: kExitUsage for
  /// deterministic failures, kExitUnreachable for a shutdown race
  /// (retryable — resubmit to the restarted server).
  int error_exit = kExitUsage;
  VerdictCache::Entry entry;
  /// Progress subscribers (connections that asked for events).  Called
  /// under mu from the exploring thread; must not throw.
  std::vector<std::function<void(const sched::ExploreOptions::Progress&)>>
      subs;
};

namespace {

VerdictCache make_cache(const ServeOptions& opts) {
  VerdictCache::Options co;
  co.max_entries = opts.cache_entries;
  co.max_bytes = opts.cache_bytes;
  if (!opts.state_dir.empty()) {
    mkdir_quiet(opts.state_dir);
    mkdir_quiet(opts.state_dir + "/cache");
    mkdir_quiet(opts.state_dir + "/jobs");
    co.dir = opts.state_dir + "/cache";
  }
  return VerdictCache(co);
}

}  // namespace

Server::Server(ServeOptions opts)
    : opts_(std::move(opts)),
      cache_(make_cache(opts_)),
      memo_(opts_.cache_entries, opts_.cache_bytes) {}

Server::~Server() { stop(); }

void Server::start() {
  if (started_) return;
  if (!opts_.unix_path.empty()) {
    listen_fd_ = dist::unix_listen(opts_.unix_path);
  } else if (!opts_.tcp.empty()) {
    listen_fd_ = dist::tcp_listen(opts_.tcp);
  } else {
    throw dist::DistError(dist::DistError::Kind::Protocol,
                          "serve: no endpoint (need unix_path or tcp)");
  }
  stopping_.store(false);
  recover_orphans();
  const std::uint32_t n = opts_.workers == 0 ? 1 : opts_.workers;
  for (std::uint32_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
  accept_thread_ = std::thread([this] { accept_loop(); });
  started_ = true;
}

void Server::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] {
    return shutdown_requested_ || stopping_.load();
  });
}

void Server::stop() {
  if (!started_) return;
  stopping_.store(true);
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Fail jobs still queued — no worker will pick them up now.  Their
    // journal entries stay on disk, so a restarted server finishes
    // them.
    for (const JobPtr& job : queue_) {
      std::lock_guard<std::mutex> jl(job->mu);
      job->done = true;
      job->ok = false;
      job->error = "server shutting down";
      job->error_exit = kExitUnreachable;  // retryable: journal survives
      job->cv.notify_all();
    }
    queue_.clear();
    done_cv_.notify_all();
  }
  queue_cv_.notify_all();
  ::shutdown(listen_fd_.get(), SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [fd, thread] : conns_) {
      if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
    }
  }
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  for (;;) {
    std::thread t;
    int fd = -1;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (conns_.empty()) break;
      fd = conns_.front().first;
      t = std::move(conns_.front().second);
      conns_.pop_front();
    }
    if (t.joinable()) t.join();
    if (fd >= 0) ::close(fd);
  }
  workers_.clear();
  listen_fd_.reset();
  if (!opts_.unix_path.empty()) ::unlink(opts_.unix_path.c_str());
  started_ = false;
}

bool Server::shutdown_requested() const {
  std::lock_guard<std::mutex> lock(mu_);
  return shutdown_requested_;
}

ServeStats Server::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServeStats s = stats_;
  s.cache = cache_.stats();
  const KeyMemo::Stats m = memo_.stats();
  s.memo_hits = m.hits;
  s.memo_entries = m.entries;
  s.memo_bytes = m.bytes;
  const dist::TransportCounters tc = dist::transport_counters();
  s.send_retries = tc.send_retries;
  s.connect_retries = tc.connect_retries;
  return s;
}

void Server::accept_loop() {
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_.get(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down (or fatal): exit the loop
    }
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_.load()) {
      ::close(fd);
      break;
    }
    // Reap finished connections (their fd slot is -1) so a long-lived
    // server does not accumulate dead threads.
    for (auto it = conns_.begin(); it != conns_.end();) {
      if (it->first == -1) {
        if (it->second.joinable()) it->second.join();
        it = conns_.erase(it);
      } else {
        ++it;
      }
    }
    conns_.emplace_back(fd, std::thread([this, fd] {
                          handle_connection(fd);
                        }));
  }
}

void Server::handle_connection(int fd) {
  dist::FrameReader reader;
  std::mutex write_mu;
  try {
    dist::Frame frame;
    while (!stopping_.load() && read_frame_blocking(fd, reader, frame)) {
      std::string response;
      if (frame.type == dist::FrameType::kServeRequest) {
        response = handle_request(fd, write_mu, frame.payload);
        if (response.empty()) break;  // client vanished mid-wait
      } else {
        response = make_error("unexpected frame type", kExitUsage);
      }
      send_frame(fd, write_mu, dist::FrameType::kServeResponse, response);
    }
  } catch (const std::exception&) {
    // Corrupt frames or a vanished peer end the connection; the
    // server itself is unaffected.
  }
  // Mark the slot finished (close happens exactly once, here; stop()
  // only ever shutdown()s a live fd under mu_, so there is no race
  // with fd-number reuse).
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& slot : conns_) {
    if (slot.first == fd) {
      ::close(fd);
      slot.first = -1;
      break;
    }
  }
}

std::string Server::handle_request(int fd, std::mutex& write_mu,
                                   const std::string& text) {
  const Clock::time_point t0 = Clock::now();
  // An exact resubmission: its key is memoized, so it is neither
  // parsed nor lowered.  The verdict still comes through the cache
  // (recency, hit and miss counts); if it was evicted, the full path
  // below runs with the known key.
  const std::optional<CacheKey> known = memo_.find(text);
  if (known) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.requests;
    }
    if (std::optional<VerdictCache::Entry> hit = cache_.get(*known)) {
      return make_response(true, *known, elapsed_us(t0), *hit);
    }
  }
  JsonValue doc;
  try {
    doc = json_parse(text);
  } catch (const JsonError& e) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.errors;
    return make_error(e.what(), kExitUsage);
  }
  const std::string command = doc.str_or("command", "");
  if (command == "ping") {
    return "{\"status\":\"ok\",\"pong\":true}";
  }
  if (command == "stats") {
    const ServeStats s = stats();
    JsonWriter w;
    w.begin_obj().key("status").value("ok").key("stats").begin_obj()
        .key("requests").value(s.requests)
        .key("jobs_run").value(s.jobs_run)
        .key("jobs_recovered").value(s.jobs_recovered)
        .key("jobs_resumed").value(s.jobs_resumed)
        .key("jobs_deduped").value(s.jobs_deduped)
        .key("rejected").value(s.rejected)
        .key("errors").value(s.errors)
        .key("shed_requests").value(s.shed_requests)
        .key("reaped_clients").value(s.reaped_clients)
        .key("degraded_spill").value(s.degraded_spill)
        .key("checkpoint_write_failures").value(s.checkpoint_write_failures)
        .key("journal_failures").value(s.journal_failures)
        .key("send_retries").value(s.send_retries)
        .key("connect_retries").value(s.connect_retries)
        .key("memo_hits").value(s.memo_hits)
        .key("memo_entries").value(s.memo_entries)
        .key("memo_bytes").value(s.memo_bytes)
        .key("cache_hits").value(s.cache.hits)
        .key("cache_misses").value(s.cache.misses)
        .key("cache_insertions").value(s.cache.insertions)
        .key("cache_evictions").value(s.cache.evictions)
        .key("cache_disk_hits").value(s.cache.disk_hits)
        .key("cache_persist_failures").value(s.cache.persist_failures)
        .end_obj().end_obj();
    return w.take();
  }
  if (command == "shutdown") {
    {
      std::lock_guard<std::mutex> lock(mu_);
      shutdown_requested_ = true;
      done_cv_.notify_all();
    }
    return "{\"status\":\"ok\",\"shutting_down\":true}";
  }

  Request req;
  CacheKey key;
  try {
    req = request_from_json(doc);
    // cache_key lowers the source: PtxError on bad input.
    key = known ? *known : cache_key(req);
  } catch (const std::exception& e) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.errors;
    return make_error(e.what(), kExitUsage);
  }
  if (!known) {
    memo_.put(text, key);
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.requests;
    }
    if (std::optional<VerdictCache::Entry> hit = cache_.get(key)) {
      return make_response(true, key, elapsed_us(t0), *hit);
    }
  }

  const std::uint64_t progress_every = doc.u64_or("progress", 0);
  ProgressSub sub;
  if (progress_every != 0) {
    const std::string hex = key.hex();
    sub = [fd, &write_mu, hex](const sched::ExploreOptions::Progress& p) {
      JsonWriter w;
      w.begin_obj()
          .key("event").value("progress")
          .key("key").value(hex)
          .key("states").value(p.states_visited)
          .key("transitions").value(p.transitions)
          .key("frontier").value(p.frontier)
          .end_obj();
      send_frame(fd, write_mu, dist::FrameType::kServeEvent, w.take());
    };
  }
  std::string error;
  const JobPtr job =
      admit(req, key, text, progress_every, false, &error, std::move(sub));
  if (job == nullptr) {
    // Queue full: shed the request with the typed retryable reply —
    // the client backs off retry_after_ms and resubmits.
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.shed_requests;
    return make_busy(error);
  }

  {
    JsonWriter w;
    w.begin_obj().key("event").value("accepted").key("key")
        .value(key.hex()).end_obj();
    try {
      send_frame(fd, write_mu, dist::FrameType::kServeEvent, w.take());
    } catch (const std::exception&) {
    }
  }

  // Wait for the verdict, probing the client between waits: a vanished
  // client must not anchor a queued job nobody will ever read.
  {
    std::unique_lock<std::mutex> jl(job->mu);
    ++job->waiters;
    while (!job->done) {
      job->cv.wait_for(jl, std::chrono::milliseconds(100));
      if (job->done) break;
      if (!client_alive(fd)) {
        --job->waiters;
        const bool last = job->waiters == 0 && !job->running;
        jl.unlock();
        if (last) reap_if_queued(job);
        return "";  // sentinel: close the connection, send nothing
      }
    }
    --job->waiters;
    if (!job->ok) {
      const std::string msg = job->error;
      const int code = job->error_exit;
      jl.unlock();
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.errors;
      return make_error(msg, code);
    }
  }
  std::lock_guard<std::mutex> jl(job->mu);
  return make_response(false, key, elapsed_us(t0), job->entry);
}

/// Remove `job` from the queue if no worker has claimed it: the last
/// waiting client vanished, so running it would burn a worker on a
/// verdict nobody reads.  Queue membership under mu_ is authoritative
/// (worker_loop pops under mu_), so there is no race with pickup.
void Server::reap_if_queued(const JobPtr& job) {
  bool reaped = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = std::find(queue_.begin(), queue_.end(), job);
    if (it == queue_.end()) return;  // a worker owns it now
    {
      // Re-check under job->mu: a late dedup joiner may be waiting.
      std::lock_guard<std::mutex> jl(job->mu);
      if (job->waiters != 0 || job->recovered) return;
    }
    queue_.erase(it);
    inflight_.erase(job->key.hex());
    ++stats_.reaped_clients;
    reaped = true;
  }
  if (reaped) {
    journal_erase(*job);
    if (opts_.verbose) {
      std::fprintf(stderr, "serve: job %s reaped (client vanished)\n",
                   job->key.hex().c_str());
    }
  }
}

Server::JobPtr Server::admit(const Request& req, const CacheKey& key,
                             const std::string& req_json,
                             std::uint64_t progress_every, bool recovered,
                             std::string* error, ProgressSub sub) {
  JobPtr job;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = inflight_.find(key.hex());
    if (it != inflight_.end()) {
      ++stats_.jobs_deduped;
      job = it->second;
      if (sub) {
        // Late join: best effort — the job may already be past its
        // exploration (or done, in which case events are moot).
        std::lock_guard<std::mutex> jl(job->mu);
        if (!job->done) job->subs.push_back(std::move(sub));
      }
      return job;
    }
    if (!recovered && queue_.size() >= opts_.queue_limit) {
      ++stats_.rejected;
      if (error != nullptr) *error = "server busy: job queue is full";
      return nullptr;
    }
    job = std::make_shared<Job>();
    job->key = key;
    job->req = req;
    job->req_json = req_json;
    job->progress_every = progress_every;
    job->recovered = recovered;
    // Attached before the job is visible to any worker, so a fast job
    // cannot finish ahead of its own subscriber.
    if (sub) job->subs.push_back(std::move(sub));
    inflight_[key.hex()] = job;
    queue_.push_back(job);
  }
  if (!recovered) journal_write(*job);
  queue_cv_.notify_one();
  if (opts_.verbose) {
    std::fprintf(stderr, "serve: job %s %s\n", key.hex().c_str(),
                 recovered ? "recovered" : "admitted");
  }
  return job;
}

void Server::worker_loop() {
  for (;;) {
    JobPtr job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock,
                     [this] { return stopping_.load() || !queue_.empty(); });
      if (stopping_.load()) return;
      job = queue_.front();
      queue_.pop_front();
      ++stats_.jobs_run;
    }
    {
      // Past this point the job cannot be reaped (reap_if_queued only
      // touches jobs still in queue_, checked under mu_ above).
      std::lock_guard<std::mutex> jl(job->mu);
      job->running = true;
    }
    execute(job);
  }
}

void Server::execute(const JobPtr& job) {
  Request req = job->req;  // the journaled request stays pristine
  RunHooks hooks;
  hooks.stop_flag = &stopping_;
  std::unique_ptr<sched::Checkpoint> resume;

  if (auto* c = std::get_if<CheckRequest>(&req)) {
    // Server-enforced budgets: the request's own budget wins only when
    // tighter.
    if (opts_.job_deadline_ms != 0 &&
        (c->explore.deadline_ms == 0 ||
         c->explore.deadline_ms > opts_.job_deadline_ms)) {
      c->explore.deadline_ms = opts_.job_deadline_ms;
    }
    if (opts_.job_mem_limit_bytes != 0 &&
        (c->explore.mem_limit_bytes == 0 ||
         c->explore.mem_limit_bytes > opts_.job_mem_limit_bytes)) {
      c->explore.mem_limit_bytes = opts_.job_mem_limit_bytes;
    }
    if (!opts_.state_dir.empty()) {
      const std::string ckpt =
          opts_.state_dir + "/jobs/" + job->key.hex() + ".ckpt";
      c->explore.checkpoint_path = ckpt;
      c->explore.checkpoint_every_states = opts_.checkpoint_every_states;
      if (file_exists(ckpt)) {
        try {
          resume = std::make_unique<sched::Checkpoint>(
              sched::Checkpoint::load(ckpt));
          hooks.resume = resume.get();
          std::lock_guard<std::mutex> lock(mu_);
          ++stats_.jobs_resumed;
        } catch (const std::exception&) {
          // Torn or incompatible checkpoint: run from scratch.  A
          // resumed run reaches the verdict bytes of an uninterrupted
          // one, so either path produces the same reply.
          resume.reset();
        }
      }
    }
    c->explore.progress_every_states = job->progress_every;
    if (job->progress_every != 0) {
      const JobPtr j = job;
      c->explore.progress_fn =
          [j](const sched::ExploreOptions::Progress& p) {
            std::lock_guard<std::mutex> jl(j->mu);
            for (const auto& sub : j->subs) {
              try {
                sub(p);
              } catch (const std::exception&) {
                // A vanished subscriber must not unwind the explorer.
              }
            }
          };
    }
  }

  bool erase_journal = false;
  {
    std::lock_guard<std::mutex> jl(job->mu);
    job->ok = false;
  }
  try {
    const std::vector<Result> results = run(req, hooks);
    {
      // Health counters: degradations the run absorbed.  None of
      // these appears in the results JSON (byte-identical verdicts).
      std::lock_guard<std::mutex> lock(mu_);
      for (const Result& r : results) {
        stats_.degraded_spill += r.stats.store.degraded_spill;
        stats_.checkpoint_write_failures += r.stats.checkpoint_write_failures;
      }
    }
    VerdictCache::Entry entry;
    entry.exit_code = exit_code_of(results);
    entry.results_json = to_json(results);
    // Only deterministic outcomes are cached (and their journal entry
    // retired); a budget-stopped job keeps its journal + checkpoint so
    // the next start resumes it.
    if (cacheable(results)) {
      cache_.put(job->key, entry);
      erase_journal = true;
    }
    std::lock_guard<std::mutex> jl(job->mu);
    job->entry = std::move(entry);
    job->ok = true;
  } catch (const std::exception& e) {
    // Malformed input or an internal failure: deterministic, so the
    // journal entry is retired (replaying it forever would wedge the
    // server on every start).
    erase_journal = true;
    std::lock_guard<std::mutex> jl(job->mu);
    job->error = e.what();
  }
  if (erase_journal) journal_erase(*job);
  {
    std::lock_guard<std::mutex> lock(mu_);
    inflight_.erase(job->key.hex());
  }
  {
    std::lock_guard<std::mutex> jl(job->mu);
    job->done = true;
    job->cv.notify_all();
  }
  if (opts_.verbose) {
    std::fprintf(stderr, "serve: job %s done\n", job->key.hex().c_str());
  }
}

void Server::journal_write(const Job& job) {
  if (opts_.state_dir.empty()) return;
  // Best-effort: a lost journal entry only costs crash recovery for
  // this one job; the live execution is unaffected.  Counted, never
  // silent.
  if (!support::try_write_file_atomic(
          opts_.state_dir + "/jobs/" + job.key.hex() + ".req.json",
          job.req_json, /*sync=*/false)) {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.journal_failures;
  }
}

void Server::journal_erase(const Job& job) {
  if (opts_.state_dir.empty()) return;
  const std::string base = opts_.state_dir + "/jobs/" + job.key.hex();
  std::remove((base + ".req.json").c_str());
  std::remove((base + ".ckpt").c_str());
}

void Server::recover_orphans() {
  if (opts_.state_dir.empty()) return;
  const std::string dir = opts_.state_dir + "/jobs";
  DIR* d = ::opendir(dir.c_str());
  if (d == nullptr) return;
  std::vector<std::string> names;
  while (dirent* ent = ::readdir(d)) {
    const std::string name = ent->d_name;
    const std::string suffix = ".req.json";
    if (name.size() > suffix.size() &&
        name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
            0) {
      names.push_back(name);
    }
  }
  ::closedir(d);
  for (const std::string& name : names) {
    const std::string path = dir + "/" + name;
    const std::string text = support::read_file_or_empty(path);
    try {
      const Request req = request_from_json(text);
      const CacheKey key = cache_key(req);
      if (cache_.get(key).has_value()) {
        // Completed between the journal write and the crash (or by a
        // twin server sharing the state dir): nothing to redo.
        std::remove(path.c_str());
        std::remove((dir + "/" + key.hex() + ".ckpt").c_str());
        continue;
      }
      admit(req, key, text, 0, /*recovered=*/true, nullptr);
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.jobs_recovered;
    } catch (const std::exception&) {
      std::remove(path.c_str());  // unreadable journal entry
    }
  }
}

// --- client ----------------------------------------------------------

namespace {

dist::Fd connect_endpoint(const std::string& endpoint) {
  const bool is_path = endpoint.find('/') != std::string::npos ||
                       endpoint.find(':') == std::string::npos;
  return is_path ? dist::unix_connect(endpoint)
                 : dist::tcp_connect(endpoint);
}

}  // namespace

Client Client::connect(const std::string& endpoint) {
  return Client(connect_endpoint(endpoint));
}

Client Client::connect(const std::string& endpoint,
                       const dist::RetryPolicy& retry) {
  return Client(dist::connect_with_retry(
      [&endpoint] { return connect_endpoint(endpoint); }, retry,
      "server '" + endpoint + "'"));
}

Client::Reply Client::call(
    const std::string& request_json,
    const std::function<void(const JsonValue&)>& on_event, int deadline_ms) {
  const std::string bytes =
      dist::encode_frame(dist::FrameType::kServeRequest, request_json);
  dist::send_all(fd_.get(), bytes.data(), bytes.size());
  for (;;) {
    // The deadline is per frame (inactivity): any event resets it, so
    // a long exploration streaming progress never times out while a
    // wedged or dead server does.
    std::optional<dist::Frame> frame =
        dist::recv_frame(fd_.get(), reader_, deadline_ms);
    if (!frame) {
      throw dist::DistError(dist::DistError::Kind::PeerDied,
                            "server closed the connection");
    }
    if (frame->type == dist::FrameType::kServeEvent) {
      if (on_event) on_event(json_parse(frame->payload));
      continue;
    }
    if (frame->type == dist::FrameType::kServeResponse) {
      Reply r;
      r.doc = json_parse(frame->payload);
      r.raw = std::move(frame->payload);
      return r;
    }
    throw dist::DistError(dist::DistError::Kind::Protocol,
                          "unexpected frame from server");
  }
}

SubmitOutcome submit_with_retry(
    const std::string& endpoint, const std::string& request_json,
    const SubmitOptions& opts,
    const std::function<void(const JsonValue&)>& on_event) {
  SubmitOutcome out;
  const int attempts = opts.max_attempts < 1 ? 1 : opts.max_attempts;
  for (int attempt = 1;; ++attempt) {
    try {
      Client client = Client::connect(endpoint, opts.connect);
      out.reply = client.call(request_json, on_event, opts.timeout_ms);
    } catch (const dist::DistError& e) {
      switch (e.kind()) {
        case dist::DistError::Kind::Io:
        case dist::DistError::Kind::PeerDied:
        case dist::DistError::Kind::Timeout:
          // Retryable: the identical resubmission re-attaches to the
          // same content-addressed job (dedup / cache / journal), so a
          // reconnect never recomputes or changes a verdict.
          if (attempt >= attempts) throw;
          ++out.reconnects;
          continue;
        default:
          throw;  // Corrupt/Protocol: a bug, not a transient
      }
    }
    if (out.reply.doc.str_or("status", "") == "busy" && attempt < attempts) {
      const std::uint64_t wait = out.reply.doc.u64_or("retry_after_ms", 250);
      std::this_thread::sleep_for(std::chrono::milliseconds(wait));
      continue;
    }
    return out;
  }
}

}  // namespace cac::front
