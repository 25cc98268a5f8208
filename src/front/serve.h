// Verification-as-a-service: the `cacval serve` daemon and its client
// (docs/serve.md).
//
// The server multiplexes verification jobs over the distributed
// layer's checksummed frame transport (dist/wire.h frame types
// kServeRequest/kServeResponse/kServeEvent, payloads are UTF-8 JSON)
// on an AF_UNIX or TCP listener:
//
//  * every request is content-addressed (front/cache.h); a repeated
//    submission replays the original response bytes from the verdict
//    cache without re-running anything,
//  * concurrent submissions of the *same* job share one execution
//    (in-flight dedup) and each receives the response,
//  * distinct jobs run on a bounded worker pool behind a bounded
//    queue, each under server-enforced ExploreOptions budgets,
//  * long explorations stream progress events to the client, and
//  * jobs are crash-safe: the request is journaled and the exploration
//    checkpoints (format v7) under the state directory, so a server
//    killed mid-job resumes the work at next start and produces a
//    byte-identical verdict (tools/serve_crash_drill.py drills this
//    with SIGKILL).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "dist/transport.h"
#include "front/cache.h"
#include "front/front.h"

namespace cac::front {

struct ServeOptions {
  /// Listen endpoint: exactly one of the two.
  std::string unix_path;  // AF_UNIX socket path
  std::string tcp;        // "host:port"

  /// Concurrent verification jobs.
  std::uint32_t workers = 2;
  /// Jobs admitted but not yet running; submissions past this are
  /// rejected with a "server busy" error response.
  std::size_t queue_limit = 64;

  /// State directory: verdict-cache persistence ("cache/") and the
  /// crash-safe job journal ("jobs/").  Empty = in-memory only (no
  /// persistence, no crash recovery).
  std::string state_dir;
  std::size_t cache_entries = 1024;
  std::uint64_t cache_bytes = 64ull << 20;

  /// Per-job budgets, enforced on top of whatever the request asks
  /// for (the request's own budget wins only when tighter).  0 = none.
  std::uint64_t job_deadline_ms = 0;
  std::uint64_t job_mem_limit_bytes = 0;
  /// Checkpoint cadence for journaled jobs (states between periodic
  /// checkpoints; 0 disables periodic checkpointing).
  std::uint64_t checkpoint_every_states = 4096;

  bool verbose = false;  // log accepts/jobs/recoveries to stderr
};

struct ServeStats {
  std::uint64_t requests = 0;       // verification requests received
  std::uint64_t jobs_run = 0;       // executions (cache misses)
  std::uint64_t jobs_recovered = 0; // orphans re-enqueued at startup
  std::uint64_t jobs_resumed = 0;   // runs continued from a checkpoint
  std::uint64_t jobs_deduped = 0;   // requests that joined an in-flight job
  std::uint64_t rejected = 0;       // queue-full rejections
  std::uint64_t errors = 0;         // error responses sent
  /// Health counters (docs/robustness.md).  All are "the server
  /// absorbed a fault" signals — none implies a wrong verdict.
  std::uint64_t shed_requests = 0;   // typed busy replies (exit 4)
  std::uint64_t reaped_clients = 0;  // queued jobs whose clients vanished
  std::uint64_t degraded_spill = 0;  // jobs that lost the spill tier
  std::uint64_t checkpoint_write_failures = 0;  // retried next cadence
  std::uint64_t journal_failures = 0;  // best-effort journal writes lost
  /// Snapshot of the process-wide transport retry counters.
  std::uint64_t send_retries = 0;
  std::uint64_t connect_retries = 0;
  VerdictCache::Stats cache;
};

/// The daemon.  Lifecycle: construct, start() (binds, recovers
/// orphaned jobs, spawns threads), then wait() until stop() or a
/// client's "shutdown" command; the destructor stops if still running.
class Server {
 public:
  explicit Server(ServeOptions opts);
  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  void start();
  /// Block until stop() was called or a client requested shutdown.
  void wait();
  void stop();

  /// Whether a client's "shutdown" command arrived (the CLI polls this
  /// alongside its signal flag instead of blocking in wait()).
  [[nodiscard]] bool shutdown_requested() const;

  [[nodiscard]] ServeStats stats() const;

 private:
  struct Job;
  using JobPtr = std::shared_ptr<Job>;
  using ProgressSub =
      std::function<void(const sched::ExploreOptions::Progress&)>;

  void accept_loop();
  void worker_loop();
  void handle_connection(int fd);
  std::string handle_request(int fd, std::mutex& write_mu,
                             const std::string& text);
  void execute(const JobPtr& job);
  void recover_orphans();
  JobPtr admit(const Request& req, const CacheKey& key,
               const std::string& req_json, std::uint64_t progress_every,
               bool recovered, std::string* error, ProgressSub sub = {});
  void journal_write(const Job& job);
  void journal_erase(const Job& job);
  /// Drop a still-queued job whose last waiting client vanished.
  void reap_if_queued(const JobPtr& job);

  ServeOptions opts_;
  VerdictCache cache_;

  std::atomic<bool> stopping_{false};
  bool started_ = false;
  dist::Fd listen_fd_;
  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;   // workers wait here
  std::condition_variable done_cv_;    // wait() waits here
  bool shutdown_requested_ = false;
  std::deque<JobPtr> queue_;
  /// In-flight dedup: cache-key hex -> the job (queued or running).
  std::unordered_map<std::string, JobPtr> inflight_;
  /// Open client connections, so stop() can unblock their reads.
  std::list<std::pair<int, std::thread>> conns_;
  ServeStats stats_;
};

/// Blocking client for the serve protocol.
class Client {
 public:
  /// Endpoint syntax shared with the CLI: a path (contains '/' or no
  /// ':') connects over AF_UNIX, "host:port" over TCP.  Fails
  /// immediately on a refused connect (DistError(Io)).
  static Client connect(const std::string& endpoint);
  /// Same, but refused/unreachable connects are retried under the
  /// policy (the server may be restarting); exhaustion throws
  /// DistError(Timeout) — the typed retryable "server unreachable".
  static Client connect(const std::string& endpoint,
                        const dist::RetryPolicy& retry);

  struct Reply {
    std::string raw;  // response payload, verbatim
    JsonValue doc;    // parsed envelope
  };

  /// Send one request payload and wait for the response frame;
  /// progress events invoke `on_event` as they arrive.  `deadline_ms`
  /// is a per-frame inactivity timeout: if the server sends nothing
  /// (response *or* event) for that long, throws DistError(Timeout)
  /// instead of hanging forever on a wedged server (0 = wait forever).
  /// A server that dies mid-stream throws DistError(PeerDied).
  Reply call(const std::string& request_json,
             const std::function<void(const JsonValue&)>& on_event = {},
             int deadline_ms = 0);

 private:
  explicit Client(dist::Fd fd) : fd_(std::move(fd)) {}

  dist::Fd fd_;
  dist::FrameReader reader_;
};

/// One verification submission, hardened end to end: connect with
/// retry, per-frame inactivity timeout, reconnect-and-resubmit on a
/// retryable failure (the identical request re-attaches to the same
/// job server-side via content addressing — in-flight dedup, the
/// verdict cache, or journal recovery — so a retry never recomputes a
/// finished verdict and never changes its bytes), and busy replies
/// honored by sleeping the advertised retry_after_ms.
struct SubmitOptions {
  /// Per-frame inactivity deadline passed to Client::call (0 = none).
  int timeout_ms = 30000;
  /// Total tries across reconnects and busy backoffs.
  int max_attempts = 3;
  /// Connect retry schedule for each attempt.
  dist::RetryPolicy connect;
};

struct SubmitOutcome {
  Client::Reply reply;
  /// Reconnect-and-resubmit cycles a retryable failure forced (health
  /// signal; 0 on a clean run).
  std::uint64_t reconnects = 0;
};

/// Submit `request_json` to `endpoint` under the hardened policy.
/// Returns the final reply — which may still be a "busy" envelope if
/// every attempt was shed (callers map that to kExitBusy).  Throws
/// DistError(Timeout) once retryable failures exhaust the attempts —
/// callers map that to kExitUnreachable.
SubmitOutcome submit_with_retry(
    const std::string& endpoint, const std::string& request_json,
    const SubmitOptions& opts = {},
    const std::function<void(const JsonValue&)>& on_event = {});

}  // namespace cac::front
