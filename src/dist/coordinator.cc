#include "dist/coordinator.h"

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <deque>
#include <optional>
#include <unordered_map>
#include <utility>

#include "dist/transport.h"
#include "dist/worker.h"
#include "sched/checkpoint.h"
#include "sched/dfs.h"
#include "sched/explore_internal.h"
#include "support/binio.h"

namespace cac::dist {

using support::BinReader;
using support::BinWriter;

double DistStats::skew() const {
  std::uint64_t total = 0;
  std::uint64_t biggest = 0;
  for (const PerWorker& w : workers) {
    total += w.owned;
    biggest = std::max(biggest, w.owned);
  }
  if (total == 0 || workers.empty()) return 0.0;
  return static_cast<double>(biggest) * static_cast<double>(workers.size()) /
         static_cast<double>(total);
}

namespace {

using Limit = sched::ExploreResult::Limit;

/// Internal control-flow signal: a worker vanished; unwind run_once()
/// into the relaunch loop.
struct WorkerDiedSignal {
  std::uint32_t worker = kNoWorker;
};

// --- merged graph ----------------------------------------------------

/// The workers' graph parts linked into one graph (node owner = worker),
/// plus the per-worker stores finals are materialized from.
struct MergedGraph {
  std::vector<std::unique_ptr<sched::StateStore>> stores;  // per worker
  std::deque<GraphNode> nodes;  // stable addrs
  GraphNode* root = nullptr;
};

MergedGraph merge_parts(const std::vector<GraphPartMsg>& parts, Gid root) {
  MergedGraph g;
  const std::size_t n = parts.size();
  std::vector<std::unordered_map<std::uint32_t, GraphNode*>> by_local(n);
  g.stores.resize(n);
  for (std::size_t w = 0; w < n; ++w) {
    g.stores[w] = std::make_unique<sched::StateStore>();
    try {
      BinReader r(parts[w].store);
      g.stores[w]->decode(r);
      if (!r.done()) throw support::BinError("trailing bytes after store");
    } catch (const support::BinError& e) {
      throw DistError(DistError::Kind::Corrupt,
                      std::string("graph part store: ") + e.what());
    }
    for (const NodeRecord& rec : parts[w].nodes) {
      GraphNode& nd = g.nodes.emplace_back();
      nd.id = rec.id;
      nd.owner = static_cast<std::uint32_t>(w);
      by_local[w].emplace(rec.id.v, &nd);
    }
  }
  const auto lookup = [&](Gid gid) -> GraphNode* {
    if (gid.worker() >= n) {
      throw DistError(DistError::Kind::Corrupt,
                      "edge references an unknown worker");
    }
    const auto it = by_local[gid.worker()].find(gid.local());
    if (it == by_local[gid.worker()].end()) {
      throw DistError(DistError::Kind::Corrupt,
                      "edge references an unknown node");
    }
    return it->second;
  };
  for (std::size_t w = 0; w < n; ++w) {
    for (const NodeRecord& rec : parts[w].nodes) {
      by_local[w].at(rec.id.v)->link(rec, lookup);
    }
  }
  if (root.valid()) g.root = lookup(root);
  return g;
}

/// The verdict DFS's walk over the merged graph.
struct GraphWalk {
  using Key = GraphNode*;
  struct Frame {
    GraphNode* key;
    std::size_t next = 0;
  };

  static Color& color(GraphNode* n) { return n->color; }

  static bool next(Frame& top, sched::internal::Arrival<GraphNode*>& a) {
    if (top.next >= top.key->edges.size()) return false;
    const GraphNode::Edge& e = top.key->edges[top.next++];
    a.kind = e.kind;
    a.choice = e.choice;
    a.child = e.node;
    a.fault = &e.fault;
    return true;
  }

  static NodeKind classify(GraphNode* n, std::uint64_t, std::string& stuck) {
    if (n->kind == NodeKind::Stuck) stuck = n->stuck_reason;
    return n->kind;
  }

  static Frame open(GraphNode* n) { return Frame{n, 0}; }
};

/// The verdict DFS over the merged graph (`stopped` is the budget that
/// cut the build short, or None), with the finals re-interned into a
/// fresh result store in first-visit order, so result.final_ids
/// materialize to exactly the machines (and order) the serial engine
/// reports.
sched::ExploreResult replay(MergedGraph& g, const sched::ExploreOptions& opts,
                            Limit stopped) {
  GraphWalk walk;
  sched::internal::VerdictDfs<GraphWalk> dfs(walk, opts);
  dfs.unexpanded_limit = stopped;
  sched::internal::Arrival<GraphNode*> root;
  root.kind = g.root != nullptr ? EdgeKind::Child : EdgeKind::Overflow;
  root.child = g.root;
  dfs.arrive(root);
  dfs.run();
  dfs.finish();
  sched::ExploreResult result = std::move(dfs.result);
  auto result_store = std::make_shared<sched::StateStore>();
  result.final_ids.reserve(dfs.finals.size());
  for (const GraphNode* nd : dfs.finals) {
    sem::Machine m = g.stores[nd->owner]->materialize(nd->id);
    result.final_ids.push_back(result_store->intern(m).id);
  }
  result.store = std::move(result_store);
  return result;
}

// --- the coordinator proper ------------------------------------------

struct Peer {
  Fd fd;
  pid_t pid = -1;  // fork mode only
  FrameReader reader;
  SendBuf outbuf;
  ProbeAckMsg last_ack;   // most recent, any nonce
  bool acked_round = false;
  bool have_part = false;
  bool ckpt_acked = false;
  bool rb_acked = false;  // acked the current rollback epoch
};

class Coordinator {
 public:
  Coordinator(const ptx::Program& prg, const sem::KernelConfig& kc,
              const sem::Machine& initial,
              const sched::ExploreOptions& opts, const DistOptions& dopts)
      : prg_(prg),
        kc_(kc),
        initial_(initial),
        opts_(opts),
        dopts_(dopts),
        program_fp_(sched::program_fingerprint(prg)),
        config_fp_(sched::config_fingerprint(kc)),
        budget_(opts) {
    if (dopts_.n_workers == 0) {
      throw DistError(DistError::Kind::Protocol,
                      "need at least one worker");
    }
    if (!dopts_.resume_manifest.empty()) load_resume_manifest();
  }

  ~Coordinator() { cleanup_peers(); }

  DistResult run() {
    for (;;) {
      try {
        return run_once();
      } catch (const WorkerDiedSignal& s) {
        cleanup_peers();
        ++stats_.restarts;
        die_cleared_ = true;  // the seam fires at most once
        if (!fork_mode()) {
          throw DistError(
              DistError::Kind::PeerDied,
              "remote worker " + std::to_string(s.worker) +
                  " disconnected; restart the workers and resume from "
                  "the last checkpoint");
        }
        if (stats_.restarts > dopts_.max_restarts) {
          throw DistError(DistError::Kind::PeerDied,
                          "worker died " +
                              std::to_string(stats_.restarts) +
                              " times; giving up");
        }
        if (dopts_.verbose) {
          std::fprintf(stderr,
                       "dist: worker %u died; relaunching fleet "
                       "(restart %llu, generation %llu)\n",
                       s.worker,
                       static_cast<unsigned long long>(stats_.restarts),
                       static_cast<unsigned long long>(committed_gen_));
        }
        // Relaunch everything.  With a committed generation the whole
        // fleet — including the lost partition — reloads its
        // "<base>.g<gen>.w<idx>" snapshot; otherwise the run restarts
        // from the root.  Either way the continued run's verdict
        // equals an uninterrupted run's.
        if (committed_gen_ > 0) {
          resume_ = true;
          resume_base_ = opts_.checkpoint_path;
          resume_gen_ = committed_gen_;
          // root_ stays: the manifest's root is already in memory.
        }
      }
    }
  }

 private:
  [[nodiscard]] bool fork_mode() const { return dopts_.listen.empty() &&
                                                dopts_.listen_fd < 0; }

  void load_resume_manifest() {
    const Frame f =
        load_frame_file(dopts_.resume_manifest, FrameType::kManifest);
    ManifestMsg m;
    try {
      BinReader r(f.payload);
      m = ManifestMsg::decode(r);
      if (!r.done()) throw support::BinError("trailing bytes");
    } catch (const support::BinError& e) {
      throw sched::CheckpointError(
          sched::CheckpointError::Kind::Corrupt,
          std::string(e.what()) + " in " + dopts_.resume_manifest);
    }
    sched::verify_resume(m.program_fp, m.config_fp, m.options, prg_, kc_,
                         opts_);
    if (m.n_workers != dopts_.n_workers) {
      throw sched::CheckpointError(
          sched::CheckpointError::Kind::Mismatch,
          "distributed resume requires the original --dist-workers (" +
              std::to_string(m.n_workers) + ")");
    }
    resume_ = true;
    resume_base_ = dopts_.resume_manifest;
    resume_gen_ = m.generation;
    committed_gen_ = m.generation;
    gen_ = m.generation;
    root_ = m.root;
    root_acked_ = true;
  }

  // --- fleet lifecycle ----------------------------------------------

  /// Fork one worker process on a fresh socketpair.  Safe to call with
  /// the rest of the fleet running (piecemeal recovery): the child
  /// closes every parent-side fd it inherited, so it holds no handle
  /// to any survivor's connection.
  void fork_one(std::uint32_t i) {
    auto [parent_end, child_end] = socket_pair();
    const pid_t pid = ::fork();
    if (pid < 0) {
      throw DistError(DistError::Kind::Io, "fork failed");
    }
    if (pid == 0) {
      // Child: keep only our socket end, become worker i, and _exit
      // without running parent-side cleanup.
      for (Peer& p : peers_) p.fd.reset();
      parent_end.reset();
      int code = 0;
      try {
        run_worker(child_end.get(), prg_, kc_);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "dist: worker %u: %s\n", i, e.what());
        code = 1;
      } catch (...) {
        code = 1;
      }
      ::_exit(code);
    }
    peers_[i].fd = std::move(parent_end);
    peers_[i].pid = pid;
    child_end.reset();
    if (dopts_.verbose) {
      std::fprintf(stderr, "dist: worker %u pid %d\n", i,
                   static_cast<int>(pid));
    }
  }

  /// The identity/options frame for worker i.  The run's resident-byte
  /// budget is divided evenly so the fleet's total matches what one
  /// in-process store would be allowed.
  [[nodiscard]] SetupMsg make_setup(std::uint32_t i) const {
    SetupMsg s;
    s.worker_index = i;
    s.n_workers = dopts_.n_workers;
    s.program_fp = program_fp_;
    s.config_fp = config_fp_;
    s.options = opts_;  // codec strips transient fields
    s.checkpoint_base = opts_.checkpoint_path;
    s.store = sched::store_options(opts_);
    s.store.resident_budget_bytes /= dopts_.n_workers;
    return s;
  }

  void launch() {
    peers_.clear();
    peers_.resize(dopts_.n_workers);
    if (fork_mode()) {
      for (std::uint32_t i = 0; i < dopts_.n_workers; ++i) fork_one(i);
    } else {
      Fd listener;
      if (dopts_.listen_fd >= 0) {
        listener = Fd(dopts_.listen_fd);
        // The seam fd is single-use; don't close it twice on restart.
        const_cast<DistOptions&>(dopts_).listen_fd = -1;
      } else {
        listener = tcp_listen(dopts_.listen);
      }
      for (std::uint32_t i = 0; i < dopts_.n_workers; ++i) {
        peers_[i].fd = tcp_accept(listener.get());
      }
    }

    for (std::uint32_t i = 0; i < dopts_.n_workers; ++i) {
      SetupMsg s = make_setup(i);
      s.resume = resume_ ? 1 : 0;
      s.resume_base = resume_base_;
      s.generation = resume_gen_;
      if (!die_cleared_) {
        s.die_worker = dopts_.die_worker;
        s.die_after_states = dopts_.die_after_states;
        s.die_after_generation = dopts_.die_after_generation;
      }
      queue_msg(i, FrameType::kSetup, s);
    }
  }

  void cleanup_peers() {
    for (Peer& p : peers_) {
      if (p.pid > 0) ::kill(p.pid, SIGKILL);
      p.fd.reset();
    }
    for (Peer& p : peers_) {
      if (p.pid > 0) {
        int status = 0;
        ::waitpid(p.pid, &status, 0);
        p.pid = -1;
      }
    }
    peers_.clear();
  }

  // --- frame plumbing -----------------------------------------------

  template <typename Msg>
  void queue_msg(std::uint32_t worker, FrameType t, const Msg& m) {
    BinWriter w;
    m.encode(w);
    peers_[worker].outbuf.append(encode_frame(t, w.buffer()));
  }

  template <typename Msg>
  void broadcast(FrameType t, const Msg& m) {
    for (std::uint32_t i = 0; i < peers_.size(); ++i) queue_msg(i, t, m);
  }

  /// Control frames (pause/resume/dump/stop) carry no payload.
  void broadcast_control(FrameType t) {
    const std::string frame = encode_frame(t, "");
    for (Peer& p : peers_) p.outbuf.append(frame);
  }

  [[nodiscard]] bool outbufs_empty() const {
    for (const Peer& p : peers_) {
      if (!p.outbuf.empty()) return false;
    }
    return true;
  }

  /// One poll round: flush what we can, read what there is, dispatch
  /// every complete frame.  Throws WorkerDiedSignal when a peer whose
  /// death we are not expecting vanishes.
  void pump(int timeout_ms) {
    std::vector<pollfd> fds(peers_.size());
    for (std::size_t i = 0; i < peers_.size(); ++i) {
      fds[i].fd = peers_[i].fd.get();
      fds[i].events =
          static_cast<short>(POLLIN | (peers_[i].outbuf.empty() ? 0
                                                                : POLLOUT));
    }
    if (::poll(fds.data(), fds.size(), timeout_ms) < 0) {
      if (errno == EINTR) return;
      throw DistError(DistError::Kind::Io, "poll failed");
    }
    for (std::size_t i = 0; i < peers_.size(); ++i) {
      Peer& p = peers_[i];
      if (!p.outbuf.empty() &&
          (fds[i].revents & (POLLOUT | POLLERR | POLLHUP)) != 0) {
        if (!flush_some(p.fd.get(), p.outbuf)) {
          worker_died(static_cast<std::uint32_t>(i));
        }
      }
      if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) != 0) {
        if (!pump_reads(p.fd.get(), p.reader)) {
          // Drain what was buffered before the EOF, then report.
          dispatch_all(static_cast<std::uint32_t>(i));
          worker_died(static_cast<std::uint32_t>(i));
        }
        dispatch_all(static_cast<std::uint32_t>(i));
      }
    }
  }

  void worker_died(std::uint32_t worker) {
    if (stopping_) return;  // EOF after kStop is a clean exit
    throw WorkerDiedSignal{worker};
  }

  void dispatch_all(std::uint32_t from) {
    while (std::optional<Frame> f = peers_[from].reader.next()) {
      dispatch(from, *f);
    }
  }

  void dispatch(std::uint32_t from, const Frame& f) {
    if (rollback_awaiting_ > 0 && f.type != FrameType::kRollbackAck) {
      // Recovery barrier: every in-flight frame predates the rollback
      // and references discarded state — drop it.  The per-connection
      // FIFO guarantees a worker's kRollbackAck is dispatched only
      // after all of its stale frames were, so once the barrier opens
      // no stale frame can remain buffered.
      return;
    }
    switch (f.type) {
      case FrameType::kState:
      case FrameType::kResolve: {
        // Routed work frame: forward by the u32 target in the first
        // four payload bytes.
        if (f.payload.size() < 4) {
          throw DistError(DistError::Kind::Corrupt,
                          "routed frame too short");
        }
        const std::uint32_t target = BinReader(f.payload).u32();
        if (target >= peers_.size()) {
          throw DistError(DistError::Kind::Corrupt,
                          "routed frame targets an unknown worker");
        }
        peers_[target].outbuf.append(encode_frame(f.type, f.payload));
        return;
      }
      default:
        break;
    }
    try {
      BinReader r(f.payload);
      switch (f.type) {
        case FrameType::kRootAck: {
          const RootAckMsg m = RootAckMsg::decode(r);
          root_ = m.root;
          root_acked_ = true;
          break;
        }
        case FrameType::kProbeAck: {
          const ProbeAckMsg m = ProbeAckMsg::decode(r);
          if (m.worker != from) {
            throw DistError(DistError::Kind::Protocol,
                            "probe ack from the wrong worker");
          }
          peers_[from].last_ack = m;
          if (m.nonce == probe_nonce_) peers_[from].acked_round = true;
          break;
        }
        case FrameType::kCheckpointAck: {
          const CheckpointAckMsg m = CheckpointAckMsg::decode(r);
          // After a failed barrier disabled checkpointing, stragglers'
          // acks from the abandoned attempt still arrive; they belong
          // to no live barrier and must not throw (or satisfy) one.
          if (ckpt_disabled_) break;
          if (m.ok == 0) {
            throw sched::CheckpointError(
                sched::CheckpointError::Kind::Io,
                "worker " + std::to_string(from) +
                    " failed to checkpoint: " + m.error);
          }
          peers_[from].ckpt_acked = true;
          break;
        }
        case FrameType::kRollbackAck: {
          const RollbackAckMsg m = RollbackAckMsg::decode(r);
          if (m.worker != from || m.epoch != rollback_epoch_) {
            throw DistError(DistError::Kind::Protocol,
                            "rollback ack for the wrong worker or epoch");
          }
          if (m.ok == 0) {
            // A survivor that cannot reload its generation file is as
            // lost as the dead worker: escalate to a full relaunch.
            throw WorkerDiedSignal{from};
          }
          if (!peers_[from].rb_acked) {
            peers_[from].rb_acked = true;
            --rollback_awaiting_;
          }
          break;
        }
        case FrameType::kGraphPart: {
          GraphPartMsg m = GraphPartMsg::decode(r);
          if (m.worker != from) {
            throw DistError(DistError::Kind::Protocol,
                            "graph part from the wrong worker");
          }
          parts_[from] = std::move(m);
          peers_[from].have_part = true;
          break;
        }
        default:
          throw DistError(DistError::Kind::Protocol,
                          "unexpected frame from worker " +
                              std::to_string(from));
      }
      if (!r.done()) throw support::BinError("trailing bytes");
    } catch (const support::BinError& e) {
      throw DistError(DistError::Kind::Corrupt, e.what());
    }
  }

  // --- termination detection ----------------------------------------

  /// Two-round quiescence: a probe round is *clean* when every worker
  /// reports idle (or paused, while pausing), the global work-frame
  /// ledger balances (everything sent — including the coordinator's
  /// root seed — was processed), and the coordinator holds no
  /// undelivered frames.  Two consecutive clean rounds with identical
  /// counters mean no activity can ever occur again: the counters are
  /// monotone, and workers only send while expanding or processing.
  bool quiescent(bool require_paused) {
    if (!probe_inflight_) {
      ++probe_nonce_;
      for (Peer& p : peers_) p.acked_round = false;
      broadcast(FrameType::kProbe, ProbeMsg{probe_nonce_});
      probe_inflight_ = true;
      return false;
    }
    for (const Peer& p : peers_) {
      if (!p.acked_round) return false;
    }
    probe_inflight_ = false;  // round complete; evaluate it
    std::uint64_t sent = coord_sent_work_;
    std::uint64_t processed = 0;
    bool all_ready = root_acked_ || resume_;
    for (const Peer& p : peers_) {
      sent += p.last_ack.sent;
      processed += p.last_ack.processed;
      if (require_paused) {
        all_ready = all_ready && p.last_ack.paused != 0;
      } else {
        all_ready = all_ready && p.last_ack.idle != 0 &&
                    p.last_ack.paused == 0;
      }
    }
    const bool clean =
        all_ready && sent == processed && outbufs_empty();
    if (clean && last_clean_sent_ == sent &&
        last_clean_processed_ == processed) {
      ++stable_rounds_;
    } else if (clean) {
      stable_rounds_ = 1;
      last_clean_sent_ = sent;
      last_clean_processed_ = processed;
    } else {
      stable_rounds_ = 0;
    }
    return stable_rounds_ >= 2;
  }

  void reset_quiescence() {
    probe_inflight_ = false;
    stable_rounds_ = 0;
    last_clean_sent_ = ~0ull;
    last_clean_processed_ = ~0ull;
  }

  void wait_quiescent(bool require_paused) {
    reset_quiescence();
    while (!quiescent(require_paused)) pump(2);
  }

  // --- budgets -------------------------------------------------------

  [[nodiscard]] std::uint64_t total_owned() const {
    std::uint64_t total = 0;
    for (const Peer& p : peers_) total += p.last_ack.owned;
    return total;
  }

  [[nodiscard]] Limit budget_tripped() const {
    // The fleet's working set: ours plus what each worker last reported
    // (workers already exclude their spilled bytes).
    return budget_.tripped(total_owned(), /*poll_slow=*/true, [&] {
      std::uint64_t rss = sched::current_rss_bytes();
      for (const Peer& p : peers_) rss += p.last_ack.rss_bytes;
      return rss;
    });
  }

  // --- checkpointing -------------------------------------------------

  /// Pause -> quiesce -> per-worker generation files -> manifest
  /// commit.  The manifest rename is the commit point: a generation
  /// exists only once every worker's file is safely on disk, so resume
  /// always composes a mutually consistent cut.
  void write_generation() {
    broadcast_control(FrameType::kPause);
    wait_quiescent(/*require_paused=*/true);

    const std::uint64_t gen = gen_ + 1;
    for (Peer& p : peers_) p.ckpt_acked = false;
    broadcast(FrameType::kWriteCheckpoint, WriteCheckpointMsg{gen});
    while (!std::all_of(peers_.begin(), peers_.end(),
                        [](const Peer& p) { return p.ckpt_acked; })) {
      pump(2);
    }

    ManifestMsg m;
    m.program_fp = program_fp_;
    m.config_fp = config_fp_;
    m.options = opts_;
    m.n_workers = dopts_.n_workers;
    m.generation = gen;
    m.root = root_;
    BinWriter w;
    m.encode(w);
    write_frame_file(opts_.checkpoint_path, FrameType::kManifest,
                     w.buffer());
    // Previous generation's files are now dead weight.
    if (gen_ > 0) {
      for (std::uint32_t i = 0; i < dopts_.n_workers; ++i) {
        std::remove(
            worker_checkpoint_path(opts_.checkpoint_path, gen_, i)
                .c_str());
      }
    }
    gen_ = gen;
    committed_gen_ = gen;
    stats_.generations = gen;
  }

  // --- piecemeal recovery --------------------------------------------

  /// Replace exactly the dead worker instead of relaunching the fleet.
  /// Survivors roll back in-process to the last committed generation
  /// (kRollback, a barrier during which every in-flight work frame is
  /// discarded as stale), the dead partition is re-forked with a
  /// resume setup, and the whole fleet re-enters the same cut a full
  /// relaunch would — at the cost of one fork instead of n.
  /// Called for a death surfaced in the main expansion loop or its
  /// checkpoint barrier (deaths elsewhere — dump, drain — unwind to the
  /// full relaunch path, whose simpler invariants cover them).  Without
  /// fork mode, a committed generation to roll back to, or restarts
  /// left, `signal` is rethrown to that path too.
  void piecemeal_recover(const WorkerDiedSignal& signal) {
    if (!fork_mode() || committed_gen_ == 0 ||
        stats_.restarts >= dopts_.max_restarts) {
      throw signal;
    }
    const std::uint32_t dead = signal.worker;
    if (dopts_.verbose) {
      std::fprintf(stderr,
                   "dist: worker %u died; piecemeal restart from "
                   "generation %llu\n",
                   dead, static_cast<unsigned long long>(committed_gen_));
    }
    // Reap the corpse.
    Peer& d = peers_[dead];
    if (d.pid > 0) {
      ::kill(d.pid, SIGKILL);
      int status = 0;
      ::waitpid(d.pid, &status, 0);
      d.pid = -1;
    }
    d.fd.reset();
    d.reader = FrameReader{};
    d.have_part = false;

    // Every queued outbound frame references pre-rollback state, and
    // every cached ack carries pre-rollback counters.
    for (Peer& p : peers_) {
      p.outbuf = SendBuf{};
      p.last_ack = ProbeAckMsg{};
      p.acked_round = false;
      p.rb_acked = false;
    }

    // Barrier: survivors reload the committed generation and park.
    ++rollback_epoch_;
    RollbackMsg rb;
    rb.generation = committed_gen_;
    rb.resume_base = opts_.checkpoint_path;
    rb.epoch = rollback_epoch_;
    rollback_awaiting_ = 0;
    for (std::uint32_t i = 0; i < peers_.size(); ++i) {
      if (i == dead) continue;
      queue_msg(i, FrameType::kRollback, rb);
      ++rollback_awaiting_;
    }
    while (rollback_awaiting_ > 0) pump(2);

    // Replacement worker: resumes the dead partition's own generation
    // file.  The die seam stays cleared so the relaunch survives.
    fork_one(dead);
    SetupMsg s = make_setup(dead);
    s.resume = 1;
    s.resume_base = opts_.checkpoint_path;
    s.generation = committed_gen_;
    queue_msg(dead, FrameType::kSetup, s);

    // New epoch's work-frame ledger starts balanced at zero (survivors
    // reset their counters with the rollback; the root is already
    // interned in its owner's reloaded partition).
    coord_sent_work_ = 0;
    broadcast_control(FrameType::kResume);
    reset_quiescence();
    ++stats_.restarts;
    ++stats_.piecemeal_restarts;
    die_cleared_ = true;
  }

  // --- run -----------------------------------------------------------

  DistResult run_once() {
    stopping_ = false;
    root_acked_ = resume_;  // a resumed run's root is known up front
    coord_sent_work_ = 0;
    rollback_awaiting_ = 0;  // a full relaunch abandons any barrier
    parts_.assign(dopts_.n_workers, GraphPartMsg{});
    reset_quiescence();
    launch();

    if (!resume_) {
      // Seed the root with its owner, in the store's state record.
      sched::StateStore seed;
      sem::Machine root_state = initial_;
      const sched::StateId root = seed.intern(root_state).id;
      BinWriter sw;
      seed.encode_state(root, sw);
      StateMsg sm;
      sm.target = owner_of(seed.machine_hash(root), dopts_.n_workers);
      sm.parent = Gid{};
      sm.depth = 0;
      sm.state = sw.take();
      queue_msg(sm.target, FrameType::kState, sm);
      coord_sent_work_ = 1;
      ++stats_.frontier_msgs;
    }

    const bool periodic = !opts_.checkpoint_path.empty() &&
                          opts_.checkpoint_every_states != 0;
    std::uint64_t next_ckpt_at =
        periodic ? opts_.checkpoint_every_states : ~0ull;

    Limit stop_reason = Limit::None;
    for (;;) {
      try {
        pump(2);
      } catch (const WorkerDiedSignal& s) {
        piecemeal_recover(s);
        continue;
      }
      stop_reason = budget_tripped();
      if (stop_reason == Limit::None &&
          total_owned() >= opts_.max_states) {
        // The fleet holds the state cap collectively; stop expanding.
        // Structural, exactly like a cap hit inside one partition.
        stop_reason = Limit::MaxStates;
      }
      if (stop_reason != Limit::None) break;
      if (periodic && !ckpt_disabled_ && total_owned() >= next_ckpt_at) {
        try {
          // A failed barrier (a worker's full disk, or the manifest's)
          // drops checkpointing for the rest of the run; the paused
          // fleet resumes below and explores on.
          if (!tally_.attempt([&] { write_generation(); })) {
            ckpt_disabled_ = true;
          }
        } catch (const WorkerDiedSignal& s) {
          // A death caught mid-barrier abandons the partial
          // generation (its files are overwritten on the retry, the
          // barrier's stale acks are dropped by the rollback guard in
          // dispatch()); survivors roll back to the last committed
          // generation exactly as for a death in the expansion loop.
          piecemeal_recover(s);
          continue;
        }
        next_ckpt_at = total_owned() + opts_.checkpoint_every_states;
        broadcast_control(FrameType::kResume);
        reset_quiescence();
        continue;
      }
      if (quiescent(/*require_paused=*/false)) break;
    }

    if (stop_reason != Limit::None && !opts_.checkpoint_path.empty() &&
        !ckpt_disabled_) {
      // Graceful stop: persist the frontier.  Should that fail, the
      // workers are still paused and quiescent at the barrier's cut,
      // which is all kDump needs.
      if (!tally_.attempt([&] { write_generation(); })) ckpt_disabled_ = true;
    } else if (stop_reason != Limit::None) {
      // Still need a consistent cut before dumping the graph.
      broadcast_control(FrameType::kPause);
      wait_quiescent(/*require_paused=*/true);
    }

    // Collect the graph, stop the fleet.
    broadcast_control(FrameType::kDump);
    while (!std::all_of(peers_.begin(), peers_.end(),
                        [](const Peer& p) { return p.have_part; })) {
      pump(2);
    }
    broadcast_control(FrameType::kStop);
    stopping_ = true;
    while (!outbufs_empty()) pump(2);
    cleanup_stopped_fleet();

    // Merge + replay.
    MergedGraph g = merge_parts(parts_, root_);
    DistResult out;
    out.result = replay(g, opts_, stop_reason);
    tally_.report(out.result);
    out.stats = stats_;
    out.stats.send_retries = transport_counters().send_retries;
    out.stats.connect_retries = transport_counters().connect_retries;
    out.stats.workers.resize(dopts_.n_workers);
    for (std::uint32_t i = 0; i < dopts_.n_workers; ++i) {
      DistStats::PerWorker& w = out.stats.workers[i];
      w.owned = parts_[i].owned;
      w.frontier_sent = parts_[i].frontier_sent;
      w.resolves_sent = parts_[i].resolves_sent;
      w.bytes_sent = parts_[i].bytes_sent;
      w.bytes_received = parts_[i].bytes_received;
      out.stats.frontier_msgs += parts_[i].frontier_sent;
      // The run's memory story is the sum of the partition stores.
      for (const auto counter : sched::kStoreCounters) {
        out.result.store_stats.*counter += parts_[i].store_stats.*counter;
      }
    }
    return out;
  }

  /// Orderly shutdown: close our ends, reap the children.
  void cleanup_stopped_fleet() {
    for (Peer& p : peers_) p.fd.reset();
    for (Peer& p : peers_) {
      if (p.pid > 0) {
        int status = 0;
        ::waitpid(p.pid, &status, 0);
        p.pid = -1;
      }
    }
  }

  const ptx::Program& prg_;
  const sem::KernelConfig& kc_;
  const sem::Machine& initial_;
  const sched::ExploreOptions& opts_;
  const DistOptions& dopts_;
  const std::uint64_t program_fp_;
  const std::uint64_t config_fp_;

  std::vector<Peer> peers_;
  std::vector<GraphPartMsg> parts_;
  DistStats stats_;
  const sched::internal::Budget budget_;

  Gid root_;
  bool root_acked_ = false;
  bool stopping_ = false;
  bool die_cleared_ = false;
  sched::internal::CheckpointTally tally_;
  /// A checkpoint barrier failed (worker ENOSPC or manifest write):
  /// checkpointing is off for the rest of the run and stale barrier
  /// acks are discarded.  The exploration itself continues.
  bool ckpt_disabled_ = false;
  std::uint64_t coord_sent_work_ = 0;

  // resume / generations
  bool resume_ = false;
  std::string resume_base_;
  std::uint64_t resume_gen_ = 0;
  std::uint64_t gen_ = 0;
  std::uint64_t committed_gen_ = 0;

  // piecemeal recovery barrier
  std::uint32_t rollback_epoch_ = 0;
  std::uint32_t rollback_awaiting_ = 0;

  // probe machinery
  std::uint64_t probe_nonce_ = 0;
  bool probe_inflight_ = false;
  unsigned stable_rounds_ = 0;
  std::uint64_t last_clean_sent_ = ~0ull;
  std::uint64_t last_clean_processed_ = ~0ull;
};

}  // namespace

DistResult explore_distributed(const ptx::Program& prg,
                               const sem::KernelConfig& kc,
                               const sem::Machine& initial,
                               const sched::ExploreOptions& opts,
                               const DistOptions& dopts) {
  Coordinator c(prg, kc, initial, opts, dopts);
  return c.run();
}

}  // namespace cac::dist
