// Verdict equivalence between the serial DFS explorer and the
// distributed engine: on every scenario the coordinator + N worker
// processes must reproduce the serial ExploreResult *byte for byte* —
// exhaustive flag, state/transition counts, violations with their
// kinds, messages and replayable traces, the finals vector (content
// and order), and the min/max schedule lengths — at every worker
// count, with and without partial-order reduction.  Also pinned here:
// partition accounting, coordinated checkpoint/resume, recovery from a
// SIGKILLed worker, and the TCP transport.
#include "dist/coordinator.h"

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>

#include "common/finals.h"
#include "dist/transport.h"
#include "dist/worker.h"
#include "programs/corpus.h"
#include "ptx/lower.h"
#include "sched/checkpoint.h"
#include "sem/launch.h"

namespace cac::dist {
namespace {

using namespace cac::ptx;
using programs::VecAddLayout;
using sched::ExploreOptions;
using sched::ExploreResult;
using sched::Violation;

void expect_identical(const ExploreResult& a, const ExploreResult& b,
                      const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.exhaustive, b.exhaustive);
  EXPECT_EQ(a.states_visited, b.states_visited);
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_EQ(a.min_steps_to_termination, b.min_steps_to_termination);
  EXPECT_EQ(a.max_steps_to_termination, b.max_steps_to_termination);
  ASSERT_EQ(a.final_ids.size(), b.final_ids.size());
  const std::vector<sem::Machine> af = finals_of(a);
  const std::vector<sem::Machine> bf = finals_of(b);
  for (std::size_t i = 0; i < af.size(); ++i) {
    EXPECT_EQ(af[i], bf[i]) << "finals[" << i << "]";
  }
  ASSERT_EQ(a.violations.size(), b.violations.size());
  for (std::size_t i = 0; i < a.violations.size(); ++i) {
    EXPECT_EQ(a.violations[i].kind, b.violations[i].kind);
    EXPECT_EQ(a.violations[i].message, b.violations[i].message);
    EXPECT_EQ(a.violations[i].trace, b.violations[i].trace);
  }
}

/// Run serial vs distributed at several worker counts, with and
/// without POR, and demand identical results throughout.
void expect_dist_equivalent(const ptx::Program& prg,
                            const sem::KernelConfig& kc,
                            const sem::Machine& init) {
  for (const bool por : {false, true}) {
    ExploreOptions opts;
    opts.partial_order_reduction = por;
    const ExploreResult serial = sched::explore(prg, kc, init, opts);

    for (const std::uint32_t workers : {1u, 2u, 4u}) {
      DistOptions dopts;
      dopts.n_workers = workers;
      const DistResult r =
          explore_distributed(prg, kc, init, opts, dopts);
      expect_identical(serial, r.result,
                       "por=" + std::to_string(por) +
                           " workers=" + std::to_string(workers));
      EXPECT_EQ(r.stats.restarts, 0u);
      ASSERT_EQ(r.stats.workers.size(), workers);
    }
  }
}

sem::Machine vecadd_machine(const ptx::Program& prg,
                            const sem::KernelConfig& kc,
                            std::uint32_t size) {
  const VecAddLayout L;
  sem::Launch launch(prg, kc, mem::MemSizes{L.global_bytes, 0, 0, 0, 1});
  launch.param("arr_A", L.a).param("arr_B", L.b).param("arr_C", L.c)
      .param("size", size);
  for (std::uint32_t i = 0; i < size; ++i) {
    launch.global_u32(L.a + 4 * i, 3 * i + 1);
    launch.global_u32(L.b + 4 * i, 7 * i + 2);
  }
  return launch.machine();
}

TEST(DistExplore, VectorAddTwoWarps) {
  const ptx::Program prg = programs::vector_add_listing2();
  const sem::KernelConfig kc{{1, 1, 1}, {8, 1, 1}, 4};
  expect_dist_equivalent(prg, kc, vecadd_machine(prg, kc, 8));
}

TEST(DistExplore, ReduceSharedWithBarriers) {
  const ptx::Program prg =
      ptx::load_ptx(programs::reduce_shared_ptx()).kernel("reduce");
  const sem::KernelConfig kc{{1, 1, 1}, {4, 1, 1}, 2};
  sem::Launch launch(prg, kc, mem::MemSizes{64, 0, 256, 0, 1});
  launch.param("arr_A", 0).param("out", 32);
  for (std::uint32_t i = 0; i < 4; ++i) launch.global_u32(4 * i, i + 1);
  expect_dist_equivalent(prg, kc, launch.machine());
}

TEST(DistExplore, AtomicSumTwoBlocks) {
  const ptx::Program prg =
      ptx::load_ptx(programs::atomic_sum_ptx()).kernel("atomic_sum");
  const sem::KernelConfig kc{{2, 1, 1}, {2, 1, 1}, 2};
  sem::Launch launch(prg, kc, mem::MemSizes{64, 0, 0, 0, 1});
  launch.param("arr_A", 0).param("out", 32).param("size", 4);
  for (std::uint32_t i = 0; i < 4; ++i) launch.global_u32(4 * i, i + 1);
  launch.global_u32(32, 0);
  expect_dist_equivalent(prg, kc, launch.machine());
}

TEST(DistExplore, RacyStoreFinalsDifferBySchedule) {
  const Reg r1{TypeClass::UI, 32, 1};
  const Program prg("race",
                    {IMov{r1, op_sreg(SregKind::CtaId, Dim::X)},
                     ISt{Space::Global, UI(32), op_imm(0), r1}, IExit{}});
  const sem::KernelConfig kc{{2, 1, 1}, {1, 1, 1}, 1};
  const sem::Machine init =
      sem::Launch(prg, kc, mem::MemSizes{8, 0, 0, 0, 1}).machine();
  expect_dist_equivalent(prg, kc, init);

  DistOptions dopts;
  dopts.n_workers = 2;
  const DistResult r =
      explore_distributed(prg, kc, init, ExploreOptions{}, dopts);
  EXPECT_TRUE(r.result.exhaustive);
  EXPECT_TRUE(r.result.all_schedules_terminate());
  EXPECT_FALSE(r.result.schedule_independent());
  EXPECT_EQ(r.result.final_ids.size(), 2u);
}

TEST(DistExplore, StuckVerdictMatchesSerial) {
  const ptx::Program prg = ptx::load_ptx(programs::barrier_divergence_ptx())
                               .kernel("barrier_divergence");
  const sem::KernelConfig kc{{1, 1, 1}, {4, 1, 1}, 4};
  const sem::Machine init = sem::Launch(prg, kc, mem::MemSizes{}).machine();
  expect_dist_equivalent(prg, kc, init);
}

TEST(DistExplore, CycleVerdictMatchesSerial) {
  const Program prg("spin", {IBra{0}});
  const sem::KernelConfig kc{{1, 1, 1}, {2, 1, 1}, 2};
  const sem::Machine init = sem::Launch(prg, kc, mem::MemSizes{}).machine();
  expect_dist_equivalent(prg, kc, init);

  DistOptions dopts;
  dopts.n_workers = 2;
  const DistResult r =
      explore_distributed(prg, kc, init, ExploreOptions{}, dopts);
  ASSERT_FALSE(r.result.violations.empty());
  EXPECT_EQ(r.result.violations[0].kind, Violation::Kind::Cycle);
}

TEST(DistExplore, FaultVerdictMatchesSerial) {
  const Reg r1{TypeClass::UI, 32, 1};
  const Program prg("oob",
                    {ILd{Space::Global, UI(32), r1, op_imm(1000)}, IExit{}});
  const sem::KernelConfig kc{{1, 1, 1}, {2, 1, 1}, 2};
  const sem::Machine init =
      sem::Launch(prg, kc, mem::MemSizes{16, 0, 0, 0, 1}).machine();
  expect_dist_equivalent(prg, kc, init);
}

TEST(DistExplore, DepthCutPinned) {
  // The max_depth row of Explore.LimitCasesPinnedPerEngine on one
  // worker (a max_states stop is asynchronous across the fleet, so only
  // the depth cut is deterministic here).
  const ptx::Program prg = programs::straightline_program(50);
  const sem::KernelConfig kc{{1, 1, 1}, {4, 1, 1}, 2};
  const sem::Machine init = sem::Launch(prg, kc, mem::MemSizes{}).machine();
  ExploreOptions opts;
  opts.stop_at_first_violation = false;
  opts.max_depth = 5;
  DistOptions dopts;
  dopts.n_workers = 1;
  const ExploreResult r =
      explore_distributed(prg, kc, init, opts, dopts).result;
  EXPECT_EQ(r.states_visited, 21u);
  EXPECT_EQ(r.transitions, 30u);
  EXPECT_EQ(r.limit_hit, ExploreResult::Limit::MaxDepth);
  EXPECT_FALSE(r.exhaustive);
  EXPECT_EQ(r.final_ids.size(), 0u);
  ASSERT_EQ(r.violations.size(), 6u);
  for (const Violation& v : r.violations) {
    EXPECT_EQ(v.kind, Violation::Kind::DepthExceeded);
    EXPECT_EQ(v.trace.size(), 5u);
  }
}

TEST(DistExplore, PartitionAccounting) {
  // Every distinct state lives in exactly one partition, so the summed
  // partition sizes equal the serial distinct-state count, and the
  // frontier traffic is exactly the cross-partition edges (nonzero for
  // any nontrivial graph at 2+ workers).
  const ptx::Program prg = programs::vector_add_listing2();
  const sem::KernelConfig kc{{1, 1, 1}, {8, 1, 1}, 4};
  const sem::Machine init = vecadd_machine(prg, kc, 8);
  const ExploreResult serial =
      sched::explore(prg, kc, init, ExploreOptions{});

  DistOptions dopts;
  dopts.n_workers = 2;
  const DistResult r =
      explore_distributed(prg, kc, init, ExploreOptions{}, dopts);
  std::uint64_t owned = 0;
  for (const auto& w : r.stats.workers) owned += w.owned;
  EXPECT_EQ(owned, serial.states_visited);
  EXPECT_GT(r.stats.frontier_msgs, 1u);
  EXPECT_GE(r.stats.skew(), 1.0);
}

TEST(DistExplore, CheckpointResumeMatchesUninterrupted) {
  const ptx::Program prg = programs::vector_add_listing2();
  const sem::KernelConfig kc{{1, 1, 1}, {8, 1, 1}, 4};
  const sem::Machine init = vecadd_machine(prg, kc, 8);
  const ExploreResult uninterrupted =
      sched::explore(prg, kc, init, ExploreOptions{});

  const std::string base = testing::TempDir() + "dist_ckpt_test";
  // Phase 1: budget-stop mid-run; the graceful stop writes a final
  // generation.
  ExploreOptions stopped;
  stopped.checkpoint_path = base;
  stopped.checkpoint_every_states = 100;
  stopped.stop_after_states = 150;
  DistOptions dopts;
  dopts.n_workers = 2;
  const DistResult partial =
      explore_distributed(prg, kc, init, stopped, dopts);
  EXPECT_FALSE(partial.result.exhaustive);
  EXPECT_EQ(partial.result.limit_hit,
            ExploreResult::Limit::Interrupted);
  EXPECT_TRUE(partial.result.checkpointed);
  ASSERT_GE(partial.stats.generations, 1u);

  // Phase 2: resume to completion; the verdict must equal an
  // uninterrupted serial run's.
  ExploreOptions cont;
  cont.checkpoint_path = base;
  cont.checkpoint_every_states = 100;
  DistOptions resume = dopts;
  resume.resume_manifest = base;
  const DistResult resumed =
      explore_distributed(prg, kc, init, cont, resume);
  expect_identical(uninterrupted, resumed.result, "resumed");

  // Cleanup all generations.
  std::remove(base.c_str());
  for (std::uint64_t g = 1; g <= 16; ++g) {
    for (std::uint32_t w = 0; w < 2; ++w) {
      std::remove(worker_checkpoint_path(base, g, w).c_str());
    }
  }
}

TEST(DistExplore, ResumeRejectsWrongWorkerCount) {
  const ptx::Program prg = programs::vector_add_listing2();
  const sem::KernelConfig kc{{1, 1, 1}, {8, 1, 1}, 4};
  const sem::Machine init = vecadd_machine(prg, kc, 8);

  const std::string base = testing::TempDir() + "dist_ckpt_wrongn";
  ExploreOptions opts;
  opts.checkpoint_path = base;
  opts.checkpoint_every_states = 100;
  DistOptions dopts;
  dopts.n_workers = 2;
  (void)explore_distributed(prg, kc, init, opts, dopts);

  DistOptions wrong;
  wrong.n_workers = 4;
  wrong.resume_manifest = base;
  EXPECT_THROW((void)explore_distributed(prg, kc, init, opts, wrong),
               sched::CheckpointError);

  std::remove(base.c_str());
  for (std::uint64_t g = 1; g <= 16; ++g) {
    for (std::uint32_t w = 0; w < 2; ++w) {
      std::remove(worker_checkpoint_path(base, g, w).c_str());
    }
  }
}

TEST(DistExplore, WorkerDeathRecovers) {
  // SIGKILL worker 1 once it owns 50 states; the coordinator must
  // relaunch the fleet and still produce the exact serial verdict.
  const ptx::Program prg = programs::vector_add_listing2();
  const sem::KernelConfig kc{{1, 1, 1}, {8, 1, 1}, 4};
  const sem::Machine init = vecadd_machine(prg, kc, 8);
  const ExploreResult serial =
      sched::explore(prg, kc, init, ExploreOptions{});

  DistOptions dopts;
  dopts.n_workers = 2;
  dopts.die_worker = 1;
  dopts.die_after_states = 50;
  const DistResult r =
      explore_distributed(prg, kc, init, ExploreOptions{}, dopts);
  expect_identical(serial, r.result, "after worker death");
  EXPECT_GE(r.stats.restarts, 1u);
}

TEST(DistExplore, WorkerDeathWithCheckpointRecovers) {
  // Same drill, but with checkpoint generations being written: the
  // relaunched fleet resumes from the last committed generation
  // instead of restarting from the root.
  const ptx::Program prg = programs::vector_add_listing2();
  const sem::KernelConfig kc{{1, 1, 1}, {8, 1, 1}, 4};
  const sem::Machine init = vecadd_machine(prg, kc, 8);
  const ExploreResult serial =
      sched::explore(prg, kc, init, ExploreOptions{});

  const std::string base = testing::TempDir() + "dist_die_ckpt";
  ExploreOptions opts;
  opts.checkpoint_path = base;
  opts.checkpoint_every_states = 80;
  DistOptions dopts;
  dopts.n_workers = 2;
  dopts.die_worker = 0;
  dopts.die_after_states = 120;
  const DistResult r = explore_distributed(prg, kc, init, opts, dopts);
  expect_identical(serial, r.result, "after death with checkpoints");
  EXPECT_GE(r.stats.restarts, 1u);

  std::remove(base.c_str());
  for (std::uint64_t g = 1; g <= 32; ++g) {
    for (std::uint32_t w = 0; w < 2; ++w) {
      std::remove(worker_checkpoint_path(base, g, w).c_str());
    }
  }
}

TEST(DistExplore, WorkerDeathPiecemealRestartsOnlyTheDeadWorker) {
  // With a committed generation on disk, recovery must take the
  // piecemeal path: survivors roll back in-process (kRollback) while
  // only the dead worker is re-forked.  The stats pin which path ran,
  // and the verdict must still be byte-identical to serial.
  const ptx::Program prg = programs::vector_add_listing2();
  const sem::KernelConfig kc{{1, 1, 1}, {8, 1, 1}, 4};
  const sem::Machine init = vecadd_machine(prg, kc, 8);
  const ExploreResult serial =
      sched::explore(prg, kc, init, ExploreOptions{});

  const std::string base = testing::TempDir() + "dist_piecemeal." +
                           std::to_string(::getpid());
  ExploreOptions opts;
  opts.checkpoint_path = base;
  opts.checkpoint_every_states = 30;
  DistOptions dopts;
  dopts.n_workers = 3;
  dopts.die_worker = 1;
  // Die on the first state owned after generation 1 commits: the
  // generation gate is what guarantees the piecemeal precondition
  // (committed_gen_ >= 1) regardless of scheduling, making this test
  // deterministic under load.
  dopts.die_after_states = 1;
  dopts.die_after_generation = 1;
  const DistResult r = explore_distributed(prg, kc, init, opts, dopts);
  expect_identical(serial, r.result, "after piecemeal recovery");
  ASSERT_GE(r.stats.restarts, 1u);
  EXPECT_GE(r.stats.piecemeal_restarts, 1u);
  EXPECT_LE(r.stats.piecemeal_restarts, r.stats.restarts);

  std::remove(base.c_str());
  for (std::uint64_t g = 1; g <= 32; ++g) {
    for (std::uint32_t w = 0; w < 3; ++w) {
      std::remove(worker_checkpoint_path(base, g, w).c_str());
    }
  }
}

TEST(DistExplore, PreGenerationDeathFallsBackToFullRelaunch) {
  // Death before any committed generation cannot roll survivors back
  // (there is nothing to roll back to), so recovery must take the
  // full-relaunch path and still reach the serial verdict.
  const ptx::Program prg = programs::vector_add_listing2();
  const sem::KernelConfig kc{{1, 1, 1}, {8, 1, 1}, 4};
  const sem::Machine init = vecadd_machine(prg, kc, 8);
  const ExploreResult serial =
      sched::explore(prg, kc, init, ExploreOptions{});

  DistOptions dopts;
  dopts.n_workers = 2;
  dopts.die_worker = 1;
  dopts.die_after_states = 50;  // no checkpoint_path: no generations
  const DistResult r =
      explore_distributed(prg, kc, init, ExploreOptions{}, dopts);
  expect_identical(serial, r.result, "full relaunch");
  EXPECT_GE(r.stats.restarts, 1u);
  EXPECT_EQ(r.stats.piecemeal_restarts, 0u);
}

TEST(DistExplore, TieredStoresMatchSerialAndReportStats) {
  // Per-worker tiered stores (budget split across the fleet, shared
  // spill dir) must leave the verdict untouched, and the merged
  // store_stats must reflect the partitioned stores' activity.
  const ptx::Program prg = programs::vector_add_listing2();
  const sem::KernelConfig kc{{1, 1, 1}, {8, 1, 1}, 4};
  const sem::Machine init = vecadd_machine(prg, kc, 8);
  const ExploreResult serial =
      sched::explore(prg, kc, init, ExploreOptions{});

  ExploreOptions opts;
  opts.store_spill_dir = testing::TempDir();
  opts.store_resident_budget_bytes = 64 << 10;  // split across workers
  DistOptions dopts;
  dopts.n_workers = 3;
  const DistResult r = explore_distributed(prg, kc, init, opts, dopts);
  expect_identical(serial, r.result, "tiered dist");
  EXPECT_EQ(r.result.store_stats.states, serial.states_visited);
  EXPECT_GT(r.result.store_stats.resident_bytes, 0u);
}

TEST(DistExplore, TcpTransportMatchesSerial) {
  // Multi-host shape on one host: bind an ephemeral port ourselves
  // (the listen_fd seam), fork workers that tcp_connect and run the
  // worker protocol, and require the byte-identical verdict.
  const ptx::Program prg = programs::vector_add_listing2();
  const sem::KernelConfig kc{{1, 1, 1}, {8, 1, 1}, 4};
  const sem::Machine init = vecadd_machine(prg, kc, 8);
  const ExploreResult serial =
      sched::explore(prg, kc, init, ExploreOptions{});

  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(lfd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(lfd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::listen(lfd, 8), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(lfd, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const std::string spec =
      "127.0.0.1:" + std::to_string(ntohs(addr.sin_port));

  constexpr std::uint32_t kWorkers = 2;
  std::vector<pid_t> pids;
  for (std::uint32_t i = 0; i < kWorkers; ++i) {
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ::close(lfd);
      int code = 0;
      try {
        Fd fd = tcp_connect(spec);
        run_worker(fd.get(), prg, kc);
      } catch (...) {
        code = 1;
      }
      ::_exit(code);
    }
    pids.push_back(pid);
  }

  DistOptions dopts;
  dopts.n_workers = kWorkers;
  dopts.listen_fd = lfd;  // ownership passes to the coordinator
  const DistResult r =
      explore_distributed(prg, kc, init, ExploreOptions{}, dopts);
  expect_identical(serial, r.result, "tcp transport");

  for (const pid_t pid : pids) {
    int status = 0;
    ::waitpid(pid, &status, 0);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
  }
}

}  // namespace
}  // namespace cac::dist
