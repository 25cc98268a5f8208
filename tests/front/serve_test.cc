// Integration tests for the verification server: concurrent
// submissions, in-flight dedup, cache-hit replay, journal recovery,
// and protocol error handling — all in-process over a real AF_UNIX
// socket.
#include "front/serve.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "dist/transport.h"
#include "dist/wire.h"
#include "front/cache.h"
#include "support/fault.h"

namespace cac::front {
namespace {

std::string data(const std::string& name) {
  std::ifstream in(std::string(CAC_SOURCE_DIR) + "/tests/data/" + name,
                   std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

CheckRequest racy_check(std::uint32_t grid_x) {
  CheckRequest r;
  r.file = "racy.ptx";
  r.source = data("racy.ptx");
  r.launch.grid = {grid_x, 1, 1};
  r.launch.block = {1, 1, 1};
  r.launch.warp_size = 1;
  r.launch.global_bytes = 64;
  r.launch.params = {{"out", 0}};
  r.explore.max_depth = 1u << 20;
  return r;
}

/// A check that keeps a worker busy for 1.5 s: its deadline stops it
/// long before its 4^12-state lattice is done (about 450k states in on
/// a 4-core x86-64 VM).  A job sized to finish instead gets shorter
/// with every explorer speedup, until it no longer outlasts the
/// test's waits.
CheckRequest pinning_check() {
  CheckRequest r = racy_check(12);
  r.explore.deadline_ms = 1500;
  return r;
}

/// A running server on a fresh socket (and optional state dir) that
/// tears itself down.
struct TestServer {
  explicit TestServer(bool persistent, std::uint32_t workers = 2,
                      std::size_t queue_limit = 64,
                      std::size_t cache_entries = 1024) {
    dir = std::filesystem::temp_directory_path() /
          ("cac_serve_test_" + std::to_string(::getpid()) + "_" +
           std::to_string(counter++));
    std::filesystem::create_directories(dir);
    ServeOptions opts;
    opts.unix_path = dir / "sock";
    opts.workers = workers;
    opts.queue_limit = queue_limit;
    opts.cache_entries = cache_entries;
    if (persistent) opts.state_dir = dir / "state";
    server = std::make_unique<Server>(std::move(opts));
    server->start();
  }

  ~TestServer() {
    server->stop();
    std::error_code ec;
    std::filesystem::remove_all(dir, ec);
  }

  Client connect() { return Client::connect(dir / "sock"); }

  std::filesystem::path dir;
  std::unique_ptr<Server> server;
  static inline int counter = 0;
};

TEST(Serve, PingAndStats) {
  TestServer ts(false);
  Client client = ts.connect();
  const Client::Reply pong = client.call(R"({"command":"ping"})");
  EXPECT_EQ(pong.doc.str_or("status", ""), "ok");
  EXPECT_TRUE(pong.doc.bool_or("pong", false));
  const Client::Reply stats = client.call(R"({"command":"stats"})");
  EXPECT_EQ(stats.doc.str_or("status", ""), "ok");
  EXPECT_EQ(stats.doc.get("stats")->u64_or("requests", 99), 0u);
}

TEST(Serve, ColdRunThenByteIdenticalCacheHit) {
  TestServer ts(false);
  Client client = ts.connect();
  const std::string payload = to_json(Request{racy_check(2)});
  const Client::Reply cold = client.call(payload);
  ASSERT_EQ(cold.doc.str_or("status", ""), "ok");
  EXPECT_FALSE(cold.doc.bool_or("cached", true));
  const Client::Reply warm = client.call(payload);
  ASSERT_EQ(warm.doc.str_or("status", ""), "ok");
  EXPECT_TRUE(warm.doc.bool_or("cached", false));
  // The cached response replays the original results bytes.
  const auto body = [](const std::string& raw) {
    const std::size_t at = raw.find("\"results\":");
    return raw.substr(at);
  };
  EXPECT_EQ(body(cold.raw), body(warm.raw));
  const ServeStats s = ts.server->stats();
  EXPECT_EQ(s.jobs_run, 1u);
  EXPECT_EQ(s.cache.hits, 1u);
}

TEST(Serve, LintPerfVerdictIsCachedByteIdentically) {
  TestServer ts(false);
  Client client = ts.connect();
  LintRequest req;
  req.file = "strided_vecadd.ptx";
  std::ifstream in(std::string(CAC_SOURCE_DIR) +
                       "/examples/buggy/perf/strided_vecadd.ptx",
                   std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  req.source = ss.str();
  req.perf = true;
  const std::string payload = to_json(Request{req});
  const Client::Reply cold = client.call(payload);
  ASSERT_EQ(cold.doc.str_or("status", ""), "ok");
  EXPECT_FALSE(cold.doc.bool_or("cached", true));
  EXPECT_EQ(cold.doc.u64_or("exit_code", 99), 0u);  // warnings only
  const Client::Reply warm = client.call(payload);
  EXPECT_TRUE(warm.doc.bool_or("cached", false));
  const auto body = [](const std::string& raw) {
    const std::size_t at = raw.find("\"results\":");
    return raw.substr(at);
  };
  EXPECT_EQ(body(cold.raw), body(warm.raw));
  // Dropping --perf is a different verdict: a miss, not a stale hit.
  LintRequest noperf = req;
  noperf.perf = false;
  const Client::Reply other = client.call(to_json(Request{noperf}));
  EXPECT_FALSE(other.doc.bool_or("cached", true));
  EXPECT_EQ(ts.server->stats().jobs_run, 2u);
}

TEST(Serve, EquivalentSourcesShareACacheEntry) {
  TestServer ts(false);
  Client client = ts.connect();
  CheckRequest a = racy_check(2);
  CheckRequest b = racy_check(2);
  b.source = "// cosmetic comment\n" + b.source + "\n";
  b.file = "renamed.ptx";
  ASSERT_EQ(cache_key(Request{a}), cache_key(Request{b}));
  client.call(to_json(Request{a}));
  const Client::Reply warm = client.call(to_json(Request{b}));
  EXPECT_TRUE(warm.doc.bool_or("cached", false));
  EXPECT_EQ(ts.server->stats().jobs_run, 1u);
}

/// The `results` bytes of a response envelope (its last member).
std::string results_of(const std::string& raw) {
  const std::string tag = "\"results\":";
  const std::size_t at = raw.find(tag);
  if (at == std::string::npos) return raw;
  return raw.substr(at + tag.size(), raw.size() - at - tag.size() - 1);
}

/// racy_check(2) with a distinct initial cell: a fresh key, the same
/// small exploration.
CheckRequest salted_check(std::uint64_t salt) {
  CheckRequest r = racy_check(2);
  r.launch.inits = {{32, salt}};
  return r;
}

TEST(Serve, ExactResubmitIsAMemoHit) {
  TestServer ts(false);
  Client client = ts.connect();
  const std::string payload = to_json(Request{racy_check(2)});
  const Client::Reply cold = client.call(payload);
  ASSERT_EQ(cold.doc.str_or("status", ""), "ok");
  const ServeStats before = ts.server->stats();
  EXPECT_EQ(before.memo_hits, 0u);
  EXPECT_EQ(before.memo_entries, 1u);
  EXPECT_EQ(before.memo_bytes, payload.size());

  const Client::Reply warm = client.call(payload);
  EXPECT_TRUE(warm.doc.bool_or("cached", false));
  EXPECT_EQ(results_of(warm.raw), results_of(cold.raw));
  const ServeStats after = ts.server->stats();
  EXPECT_EQ(after.memo_hits, before.memo_hits + 1);
  EXPECT_EQ(after.cache.hits, before.cache.hits + 1);
  EXPECT_EQ(after.cache.misses, before.cache.misses);
  EXPECT_EQ(after.jobs_run, before.jobs_run);
  EXPECT_EQ(after.requests, before.requests + 1);

  const Client::Reply stats = client.call(R"({"command":"stats"})");
  const JsonValue* st = stats.doc.get("stats");
  ASSERT_NE(st, nullptr);
  EXPECT_EQ(st->u64_or("memo_hits", 99), 1u);
  EXPECT_EQ(st->u64_or("memo_entries", 99), 1u);
  EXPECT_EQ(st->u64_or("memo_bytes", 0), payload.size());
}

TEST(Serve, NearCopiesMissTheMemoAndHitTheCache) {
  TestServer ts(false);
  Client client = ts.connect();
  CheckRequest req = racy_check(2);
  const std::string payload = to_json(Request{req});
  const Client::Reply cold = client.call(payload);
  ASSERT_EQ(cold.doc.str_or("status", ""), "ok");
  req.file = "racz.ptx";  // one byte of `file`
  std::string progress = payload;
  progress.insert(progress.size() - 1, ",\"progress\":50");
  for (const std::string& copy : {to_json(Request{req}), progress}) {
    const ServeStats before = ts.server->stats();
    const Client::Reply r = client.call(copy);
    EXPECT_TRUE(r.doc.bool_or("cached", false)) << copy;
    EXPECT_EQ(results_of(r.raw), results_of(cold.raw));
    const ServeStats after = ts.server->stats();
    EXPECT_EQ(after.memo_hits, before.memo_hits);
    EXPECT_EQ(after.cache.hits, before.cache.hits + 1);
    EXPECT_EQ(after.jobs_run, before.jobs_run);
    EXPECT_EQ(after.memo_entries, before.memo_entries + 1);
  }
}

TEST(Serve, ErrorsAndControlCommandsAreNeverMemoized) {
  TestServer ts(false);
  Client client = ts.connect();
  CheckRequest bad = racy_check(2);
  bad.source = "definitely not ptx";
  for (const std::string& payload :
       {std::string("{not json"), to_json(Request{bad})}) {
    const Client::Reply first = client.call(payload);
    const Client::Reply second = client.call(payload);
    EXPECT_EQ(first.doc.str_or("status", ""), "error") << first.raw;
    EXPECT_EQ(first.doc.u64_or("exit_code", 0), 2u);
    EXPECT_EQ(second.raw, first.raw);
  }
  for (int i = 0; i < 2; ++i) {
    EXPECT_EQ(client.call(R"({"command":"ping"})").doc.str_or("status", ""),
              "ok");
    EXPECT_EQ(client.call(R"({"command":"stats"})").doc.str_or("status", ""),
              "ok");
  }
  ServeStats s = ts.server->stats();
  EXPECT_EQ(s.errors, 4u);
  EXPECT_EQ(s.requests, 0u);
  EXPECT_EQ(s.memo_entries, 0u);
  EXPECT_EQ(s.memo_bytes, 0u);
  EXPECT_EQ(s.memo_hits, 0u);
  EXPECT_EQ(client.call(R"({"command":"shutdown"})").doc.str_or("status", ""),
            "ok");
  EXPECT_TRUE(ts.server->shutdown_requested());
  EXPECT_EQ(ts.server->stats().memo_entries, 0u);
}

TEST(Serve, MemoIsBoundedByCacheEntries) {
  TestServer ts(false, 2, 64, /*cache_entries=*/2);
  Client client = ts.connect();
  std::vector<std::string> payloads;
  std::string first_results;
  for (std::uint64_t i = 0; i < 10; ++i) {
    payloads.push_back(to_json(Request{salted_check(i)}));
    const Client::Reply r = client.call(payloads.back());
    ASSERT_EQ(r.doc.str_or("status", ""), "ok") << r.raw;
    if (i == 0) first_results = results_of(r.raw);
  }
  EXPECT_LE(ts.server->stats().memo_entries, 2u);
  EXPECT_EQ(ts.server->stats().jobs_run, 10u);
  // Both the text and the verdict are gone: the exact resubmission
  // runs again, to the same bytes.
  const Client::Reply again = client.call(payloads[0]);
  EXPECT_FALSE(again.doc.bool_or("cached", true));
  EXPECT_EQ(results_of(again.raw), first_results);
  const ServeStats s = ts.server->stats();
  EXPECT_EQ(s.jobs_run, 11u);
  EXPECT_EQ(s.memo_hits, 0u);
  EXPECT_LE(s.memo_entries, 2u);
}

TEST(Serve, ConcurrentExactCopiesAndNovelRequestsGetTheirVerdicts) {
  TestServer ts(false, 4);
  constexpr int kClients = 4;
  constexpr int kRounds = 6;
  std::vector<std::string> warm_payloads;
  std::vector<std::string> warm_local;
  {
    Client client = ts.connect();
    for (std::uint64_t i = 0; i < kClients; ++i) {
      const Request req{salted_check(i)};
      warm_payloads.push_back(to_json(req));
      warm_local.push_back(to_json(run(req)));
      ASSERT_EQ(client.call(warm_payloads.back()).doc.str_or("status", ""),
                "ok");
    }
  }
  std::atomic<int> wrong{0};
  {
    std::vector<std::thread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        Client client = ts.connect();
        for (int round = 0; round < kRounds; ++round) {
          const int w = (c + round) % kClients;
          const Client::Reply exact = client.call(warm_payloads[w]);
          if (results_of(exact.raw) != warm_local[w]) ++wrong;
          const Request novel{salted_check(100 + c * kRounds + round)};
          const Client::Reply fresh = client.call(to_json(novel));
          if (results_of(fresh.raw) != to_json(run(novel))) ++wrong;
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  EXPECT_EQ(wrong.load(), 0);
  const ServeStats s = ts.server->stats();
  EXPECT_EQ(s.memo_hits, static_cast<std::uint64_t>(kClients * kRounds));
  EXPECT_EQ(s.jobs_run, static_cast<std::uint64_t>(kClients + kClients * kRounds));
}

TEST(Serve, ConcurrentIdenticalSubmissionsRunOnce) {
  TestServer ts(true, 4);
  // grid 4 explores long enough (~1s) that all clients overlap one
  // in-flight execution.
  const std::string payload = to_json(Request{racy_check(4)});
  constexpr int kClients = 6;
  std::vector<std::string> bodies(kClients);
  std::vector<int> codes(kClients, -1);
  {
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int i = 0; i < kClients; ++i) {
      threads.emplace_back([&, i] {
        Client client = ts.connect();
        const Client::Reply r = client.call(payload);
        const std::size_t at = r.raw.find("\"results\":");
        bodies[i] = at == std::string::npos ? r.raw : r.raw.substr(at);
        codes[i] = static_cast<int>(r.doc.u64_or("exit_code", 99));
      });
    }
    for (std::thread& t : threads) t.join();
  }
  for (int i = 1; i < kClients; ++i) {
    EXPECT_EQ(bodies[i], bodies[0]) << "client " << i;
    EXPECT_EQ(codes[i], codes[0]);
  }
  const ServeStats s = ts.server->stats();
  EXPECT_EQ(s.jobs_run, 1u);  // dedup + cache absorbed the rest
  EXPECT_EQ(s.requests, static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(s.jobs_deduped + s.cache.hits,
            static_cast<std::uint64_t>(kClients - 1));
}

TEST(Serve, DistinctJobsRunConcurrently) {
  TestServer ts(false, 4);
  std::vector<std::uint32_t> grids = {2, 3};
  std::vector<std::string> statuses(grids.size());
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < grids.size(); ++i) {
    threads.emplace_back([&, i] {
      Client client = ts.connect();
      const Client::Reply r = client.call(to_json(Request{racy_check(grids[i])}));
      statuses[i] = r.doc.str_or("status", "");
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(statuses[0], "ok");
  EXPECT_EQ(statuses[1], "ok");
  EXPECT_EQ(ts.server->stats().jobs_run, 2u);
}

TEST(Serve, ProgressEventsStream) {
  TestServer ts(false);
  Client client = ts.connect();
  std::string payload = to_json(Request{racy_check(3)});
  payload.insert(payload.size() - 1, ",\"progress\":50");
  std::uint64_t events = 0;
  std::uint64_t last_states = 0;
  const Client::Reply r = client.call(payload, [&](const JsonValue& ev) {
    if (ev.str_or("event", "") == "progress") {
      ++events;
      last_states = ev.u64_or("states", 0);
    }
  });
  EXPECT_EQ(r.doc.str_or("status", ""), "ok");
  EXPECT_GT(events, 0u);
  EXPECT_GT(last_states, 0u);
}

TEST(Serve, MalformedPayloadIsError) {
  TestServer ts(false);
  Client client = ts.connect();
  const Client::Reply r = client.call("{not json");
  EXPECT_EQ(r.doc.str_or("status", ""), "error");
  EXPECT_EQ(r.doc.u64_or("exit_code", 0), 2u);
  // The connection survives an error response.
  EXPECT_EQ(client.call(R"({"command":"ping"})").doc.str_or("status", ""),
            "ok");
}

TEST(Serve, BadPtxIsUsageError) {
  TestServer ts(false);
  Client client = ts.connect();
  CheckRequest req = racy_check(2);
  req.source = "definitely not ptx";
  const Client::Reply r = client.call(to_json(Request{req}));
  EXPECT_EQ(r.doc.str_or("status", ""), "error");
  EXPECT_EQ(r.doc.u64_or("exit_code", 0), 2u);
}

TEST(Serve, VerdictsPersistAcrossRestart) {
  std::filesystem::path dir;
  std::string cold_body;
  const std::string payload = to_json(Request{racy_check(2)});
  {
    TestServer ts(true);
    dir = ts.dir;
    Client client = ts.connect();
    const Client::Reply cold = client.call(payload);
    ASSERT_EQ(cold.doc.str_or("status", ""), "ok");
    cold_body = cold.raw.substr(cold.raw.find("\"results\":"));
    // Keep the state dir alive past the TestServer destructor.
    ServeOptions opts;
    opts.unix_path = dir / "sock2";
    opts.state_dir = dir / "state";
    ts.server->stop();
    Server second(std::move(opts));
    second.start();
    Client c2 = Client::connect(dir / "sock2");
    const Client::Reply warm = c2.call(payload);
    EXPECT_TRUE(warm.doc.bool_or("cached", false));
    EXPECT_EQ(warm.raw.substr(warm.raw.find("\"results\":")), cold_body);
    EXPECT_GE(second.stats().cache.disk_hits, 1u);
    second.stop();
  }
}

TEST(Serve, LeftoverCheckpointResumesToTheLocalVerdict) {
  // The deadline is transient, so it is not in the cache key: a
  // deadline-stopped job's checkpoint is picked up by the same request
  // without the deadline, and resumes to the local verdict.
  TestServer ts(true);
  Client client = ts.connect();
  CheckRequest cut = racy_check(7);
  cut.explore.deadline_ms = 1;
  const Client::Reply r1 = client.call(to_json(Request{cut}));
  ASSERT_EQ(r1.doc.str_or("status", ""), "ok") << r1.raw;
  ASSERT_NE(r1.raw.find("deadline"), std::string::npos) << r1.raw;
  const std::string ckpt =
      (ts.dir / "state" / "jobs" / (cache_key(Request{cut}).hex() + ".ckpt"))
          .string();
  ASSERT_TRUE(std::filesystem::exists(ckpt));

  const Client::Reply r2 = client.call(to_json(Request{racy_check(7)}));
  ASSERT_EQ(r2.doc.str_or("status", ""), "ok") << r2.raw;
  EXPECT_EQ(ts.server->stats().jobs_resumed, 1u);
  const std::string local = to_json(run(Request{racy_check(7)}));
  EXPECT_NE(r2.raw.find("\"results\":" + local), std::string::npos)
      << r2.raw << "\nlocal: " << local;
}

TEST(Serve, OrphanedJournalIsRecovered) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("cac_serve_test_orphan_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir / "state" / "jobs");
  // Plant a journal entry as a SIGKILLed server would leave it.
  const Request req{racy_check(2)};
  const CacheKey key = cache_key(req);
  {
    std::ofstream out(dir / "state" / "jobs" / (key.hex() + ".req.json"));
    out << to_json(req);
  }
  ServeOptions opts;
  opts.unix_path = dir / "sock";
  opts.state_dir = dir / "state";
  Server server(std::move(opts));
  server.start();
  EXPECT_EQ(server.stats().jobs_recovered, 1u);
  // The recovered job completes and lands in the cache; a submission
  // of the same request is then served without a fresh execution.
  Client client = Client::connect(dir / "sock");
  const Client::Reply r = client.call(to_json(req));
  EXPECT_EQ(r.doc.str_or("status", ""), "ok");
  server.stop();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

// ---------------------------------------------------------------------
// Robustness (docs/robustness.md): load shedding, vanished-client
// reaping, journal faults, client deadlines, and typed retryable exits.

TEST(ServeRobust, QueueFullSubmissionIsTypedBusy) {
  // queue_limit=0 pins the queue shut: every fresh submission is shed
  // with the typed, retryable busy reply rather than a blind error.
  TestServer ts(false, /*workers=*/1, /*queue_limit=*/0);
  Client client = ts.connect();
  const std::string payload = to_json(Request{racy_check(2)});
  const Client::Reply r = client.call(payload);
  EXPECT_EQ(r.doc.str_or("status", ""), "busy");
  EXPECT_EQ(r.doc.u64_or("exit_code", 0), 4u);
  EXPECT_GT(r.doc.u64_or("retry_after_ms", 0), 0u);
  EXPECT_GE(ts.server->stats().shed_requests, 1u);

  // submit_with_retry backs off retry_after_ms between attempts; with
  // the queue still shut it hands back the final busy reply (callers
  // map that to exit 4) instead of throwing.
  SubmitOptions sopts;
  sopts.max_attempts = 2;
  const SubmitOutcome out =
      submit_with_retry(ts.dir / "sock", payload, sopts);
  EXPECT_EQ(out.reply.doc.str_or("status", ""), "busy");
  EXPECT_EQ(out.reconnects, 0u);
}

TEST(ServeRobust, StatsReplyReportsHealthCounters) {
  TestServer ts(false);
  Client client = ts.connect();
  const Client::Reply r = client.call(R"({"command":"stats"})");
  ASSERT_EQ(r.doc.str_or("status", ""), "ok");
  const JsonValue* s = r.doc.get("stats");
  ASSERT_NE(s, nullptr);
  // Fresh server: every health counter present and — unless CI armed
  // a process-wide CAC_FAULT_PLAN, which legitimately accrues
  // transport retries — zero.  u64_or's default 99 distinguishes
  // "absent" from "zero".
  const bool armed = support::fault_active();
  for (const char* key :
       {"shed_requests", "reaped_clients", "degraded_spill",
        "checkpoint_write_failures", "journal_failures", "send_retries",
        "connect_retries"}) {
    if (armed) {
      EXPECT_NE(s->u64_or(key, 99), 99u) << key;
    } else {
      EXPECT_EQ(s->u64_or(key, 99), 0u) << key;
    }
  }
}

TEST(ServeRobust, VanishedClientIsReapedAndItsJobCancelled) {
  TestServer ts(false, /*workers=*/1);
  // Pin the only worker...
  std::thread busy([&] {
    Client client = ts.connect();
    client.call(to_json(Request{pinning_check()}));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  {
    // ...then submit a distinct job over a raw connection and vanish
    // without reading the reply.  The 300ms linger lets the server
    // accept and journal the job before the socket dies.
    dist::Fd raw = dist::unix_connect((ts.dir / "sock").string());
    const std::string frame = dist::encode_frame(
        dist::FrameType::kServeRequest, to_json(Request{racy_check(3)}));
    dist::send_all(raw.get(), frame.data(), frame.size());
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
  }
  // The server's liveness probe notices within ~100ms and reaps the
  // queued job nobody will ever read.
  bool reaped = false;
  for (int i = 0; i < 100 && !reaped; ++i) {
    reaped = ts.server->stats().reaped_clients >= 1;
    if (!reaped) std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_TRUE(reaped);
  busy.join();
  EXPECT_EQ(ts.server->stats().jobs_run, 1u);  // the orphan never ran
}

TEST(ServeRobust, JournalWriteFailureIsCountedNotFatal) {
  TestServer ts(true);
  support::ScopedFaultPlan plan(
      "op=write,path=*.req.json,every=1,err=ENOSPC");
  Client client = ts.connect();
  const Client::Reply r = client.call(to_json(Request{racy_check(2)}));
  // Losing the crash-recovery journal costs durability, never the
  // verdict: the job still runs and replies normally.
  EXPECT_EQ(r.doc.str_or("status", ""), "ok");
  EXPECT_GE(ts.server->stats().journal_failures, 1u);
}

TEST(ServeRobust, ClientCallDeadlineExpiresOnSilentServer) {
  // A peer that accepts and then says nothing must not hang the
  // client: the per-frame deadline turns silence into a typed Timeout.
  const auto path = std::filesystem::temp_directory_path() /
                    ("cac_serve_silent_" + std::to_string(::getpid()));
  std::filesystem::remove(path);
  dist::Fd listener = dist::unix_listen(path.string());
  std::thread acceptor([&] {
    dist::Fd conn = dist::unix_accept(listener.get());
    std::this_thread::sleep_for(std::chrono::milliseconds(800));
  });
  Client client = Client::connect(path.string());
  try {
    client.call(R"({"command":"ping"})", {}, /*deadline_ms=*/200);
    FAIL() << "expected a deadline timeout";
  } catch (const dist::DistError& e) {
    EXPECT_EQ(e.kind(), dist::DistError::Kind::Timeout);
  }
  acceptor.join();
  std::filesystem::remove(path);
}

TEST(ServeRobust, SubmitWithRetryConnectsOnceServerIsUp) {
  // Backoff across connect attempts rides out a server that is not
  // up yet — the cold-start/restart half of reconnect-and-reattach.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("cac_serve_late_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ServeOptions opts;
  opts.unix_path = dir / "sock";
  opts.workers = 1;
  Server server(std::move(opts));
  std::thread starter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    server.start();
  });
  SubmitOptions sopts;
  sopts.connect.max_attempts = 20;
  sopts.connect.initial_backoff_ms = 25;
  sopts.connect.max_backoff_ms = 100;
  const SubmitOutcome out =
      submit_with_retry(dir / "sock", to_json(Request{racy_check(2)}), sopts);
  EXPECT_EQ(out.reply.doc.str_or("status", ""), "ok");
  starter.join();
  server.stop();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

TEST(ServeRobust, ServerDeathMidWaitIsRetryableAndReattachable) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("cac_serve_death_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ServeOptions opts;
  opts.unix_path = dir / "sock";
  opts.workers = 1;
  opts.state_dir = dir / "state";
  auto server = std::make_unique<Server>(std::move(opts));
  server->start();

  std::thread busy([&] {
    try {
      Client client = Client::connect((dir / "sock").string());
      client.call(to_json(Request{pinning_check()}));
    } catch (const std::exception&) {
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));

  // A second job queues behind the pinned worker; the server then dies
  // under it.  The waiter must see a RETRYABLE failure — the typed
  // exit-5 error reply if the response wins the race with teardown,
  // or a retryable transport error if it does not — never a hang and
  // never a non-retryable verdict.
  const std::string queued = to_json(Request{racy_check(3)});
  std::atomic<int> outcome{-1};  // 0|1 retryable, 2 wrong
  std::thread waiter([&] {
    try {
      Client client = Client::connect((dir / "sock").string());
      const Client::Reply r = client.call(queued);
      outcome = (r.doc.str_or("status", "") == "error" &&
                 r.doc.u64_or("exit_code", 0) == 5)
                    ? 0
                    : 2;
    } catch (const dist::DistError& e) {
      const auto k = e.kind();
      outcome = (k == dist::DistError::Kind::PeerDied ||
                 k == dist::DistError::Kind::Io ||
                 k == dist::DistError::Kind::Timeout)
                    ? 1
                    : 2;
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  server->stop();
  busy.join();
  waiter.join();
  EXPECT_NE(outcome.load(), 2);
  EXPECT_NE(outcome.load(), -1);

  // Re-attach: the journal survived the shutdown, so a restarted
  // server on the same state dir completes the same request.
  ServeOptions o2;
  o2.unix_path = dir / "sock2";
  o2.state_dir = dir / "state";
  o2.workers = 1;
  Server second(std::move(o2));
  second.start();
  Client client = Client::connect((dir / "sock2").string());
  const Client::Reply r = client.call(queued);
  EXPECT_EQ(r.doc.str_or("status", ""), "ok");
  second.stop();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace
}  // namespace cac::front
