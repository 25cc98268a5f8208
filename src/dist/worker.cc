#include "dist/worker.h"

#include <poll.h>
#include <signal.h>
#include <unistd.h>

#include <deque>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dist/transport.h"
#include "dist/wire.h"
#include "sched/checkpoint.h"
#include "sched/explore_internal.h"
#include "sched/state_store.h"
#include "support/binio.h"

namespace cac::dist {

namespace {

using support::BinError;
using support::BinReader;
using support::BinWriter;

class Worker {
 public:
  Worker(int fd, const ptx::Program& prg, const sem::KernelConfig& kc)
      : fd_(fd), prg_(prg), kc_(kc) {}

  void run() {
    while (!stop_) {
      // Drain buffered frames before treating EOF as fatal: the kStop
      // frame and the close often land in the same recv batch.
      const bool alive = pump_reads(fd_, reader_, &bytes_in_);
      while (std::optional<Frame> f = reader_.next()) {
        handle(*f);
        if (stop_) return;
      }
      if (!alive) {
        throw DistError(DistError::Kind::PeerDied,
                        "coordinator closed the connection");
      }
      if (have_setup_ && !paused_ && !tasks_.empty()) {
        const Task t = tasks_.back();
        tasks_.pop_back();
        expand(t);
        continue;
      }
      pollfd p{fd_, POLLIN, 0};
      ::poll(&p, 1, 20);
    }
  }

 private:
  // The partition's graph is held as the NodeRecords it is
  // shipped as.  A remote child whose kResolve has not arrived yet is a
  // pending edge (EdgeRecord::pending); quiescence guarantees none
  // remain by the time a checkpoint or graph part is serialized.
  struct Task {
    NodeRecord* node = nullptr;
    std::uint64_t depth = 0;
  };
  /// Dedup record for one distinct remote state: resolved owner
  /// verdict plus the local edges still waiting for it.
  struct MirrorEntry {
    bool resolved = false;
    bool overflow = false;
    Gid child;
    std::vector<std::pair<NodeRecord*, std::uint32_t>> waiters;
  };

  template <typename Msg>
  void send_msg(FrameType t, const Msg& m) {
    BinWriter w;
    m.encode(w);
    const std::string bytes = encode_frame(t, w.buffer());
    send_all(fd_, bytes.data(), bytes.size());
    bytes_out_ += bytes.size();
  }

  [[noreturn]] static void protocol(const std::string& what) {
    throw DistError(DistError::Kind::Protocol, what);
  }

  void handle(const Frame& f) {
    if (!have_setup_ && f.type != FrameType::kSetup) {
      protocol("first frame must be setup");
    }
    try {
      BinReader r(f.payload);
      switch (f.type) {
        case FrameType::kSetup: {
          if (have_setup_) protocol("duplicate setup");
          on_setup(SetupMsg::decode(r));
          break;
        }
        case FrameType::kState:
          on_state(StateMsg::decode(r));
          break;
        case FrameType::kResolve:
          on_resolve(ResolveMsg::decode(r));
          break;
        case FrameType::kProbe:
          on_probe(ProbeMsg::decode(r));
          break;
        case FrameType::kPause:
          paused_ = true;
          break;
        case FrameType::kResume:
          paused_ = false;
          break;
        case FrameType::kWriteCheckpoint:
          on_write_checkpoint(WriteCheckpointMsg::decode(r));
          break;
        case FrameType::kRollback:
          on_rollback(RollbackMsg::decode(r));
          break;
        case FrameType::kDump:
          on_dump();
          break;
        case FrameType::kStop:
          stop_ = true;
          break;
        default:
          protocol("unexpected frame type " +
                   std::to_string(static_cast<int>(f.type)));
      }
      if (!r.done()) throw BinError("trailing bytes after payload");
    } catch (const BinError& e) {
      throw DistError(DistError::Kind::Corrupt, e.what());
    }
  }

  void on_setup(SetupMsg m) {
    if (m.program_fp != sched::program_fingerprint(prg_) ||
        m.config_fp != sched::config_fingerprint(kc_)) {
      protocol("setup fingerprints do not match this worker's kernel");
    }
    setup_ = std::move(m);
    have_setup_ = true;
    // The mirror shares the tier knobs: a reduce-like kernel's foreign
    // children dominate a worker's footprint just like its owned ones.
    store_ = std::make_unique<sched::StateStore>(setup_.store);
    mirror_ = std::make_unique<sched::StateStore>(setup_.store);
    if (setup_.resume != 0) restore();
  }

  /// Piecemeal recovery: discard the in-memory partition and reload
  /// the committed generation — the in-process equivalent of being
  /// re-exec'd with a resume SetupMsg.  The worker parks (paused)
  /// until the coordinator's barrier completes and kResume arrives.
  void on_rollback(const RollbackMsg& m) {
    RollbackAckMsg ack;
    ack.worker = setup_.worker_index;
    ack.epoch = m.epoch;
    try {
      store_ = std::make_unique<sched::StateStore>(setup_.store);
      mirror_ = std::make_unique<sched::StateStore>(setup_.store);
      nodes_.clear();
      node_of_.clear();
      tasks_.clear();
      mirror_entries_.clear();
      has_root_ = false;
      root_local_ = 0;
      // The coordinator resets its work-frame ledger for the new
      // epoch; restart ours to keep the quiescence counters balanced.
      sent_ = 0;
      processed_ = 0;
      setup_.resume = 1;
      setup_.resume_base = m.resume_base;
      setup_.generation = m.generation;
      restore();
      paused_ = true;  // until the coordinator's post-barrier kResume
      ack.ok = 1;
    } catch (const std::exception& e) {
      ack.ok = 0;
      ack.error = e.what();
    }
    send_msg(FrameType::kRollbackAck, ack);
  }

  NodeRecord* add_node(sched::StateId id) {
    nodes_.push_back(NodeRecord{});
    NodeRecord* n = &nodes_.back();
    n->id = id;
    node_of_.emplace(id.v, n);
    return n;
  }

  /// Deterministic SIGKILL seam for the crash drill: die the moment
  /// this partition reaches the configured size.  A real SIGKILL —
  /// no unwinding, no flushing — exactly what an OOM kill or a lost
  /// host looks like to the coordinator.
  void die_check() {
    if (setup_.die_worker == setup_.worker_index &&
        setup_.die_after_states != 0 &&
        store_->size() >= setup_.die_after_states &&
        ckpt_written_gen_ >= setup_.die_after_generation) {
      // The generation gate makes the piecemeal drill deterministic:
      // die_check only runs while unpaused, and the coordinator
      // resumes the fleet strictly after committing the manifest, so
      // ckpt_written_gen_ >= G here implies generation G is committed.
      ::kill(::getpid(), SIGKILL);
    }
  }

  void on_state(const StateMsg& m) {
    BinReader sr(m.state);
    const sched::StateStore::WireIntern wi =
        store_->decode_state(sr, setup_.options.max_states);
    if (!sr.done()) throw BinError("trailing bytes in state record");
    if (owner_of(wi.hash, setup_.n_workers) != setup_.worker_index) {
      protocol("received a state this worker does not own");
    }
    ++processed_;
    const bool overflow = !wi.result.id.valid();
    if (!overflow && wi.result.inserted) {
      NodeRecord* n = add_node(wi.result.id);
      tasks_.push_back(Task{n, m.depth});
      die_check();
    }
    const Gid child = overflow
                          ? Gid{}
                          : Gid::make(setup_.worker_index, wi.result.id.v);
    if (!m.parent.valid()) {
      // Coordinator's root seed.
      if (!overflow) {
        has_root_ = true;
        root_local_ = wi.result.id.v;
      }
      send_msg(FrameType::kRootAck, RootAckMsg{child});
      return;
    }
    ResolveMsg rm;
    rm.target = m.parent.worker();
    rm.parent = m.parent;
    rm.edge_index = m.edge_index;
    rm.mirror_id = m.mirror_id;
    rm.overflow = overflow ? 1 : 0;
    rm.child = child;
    send_msg(FrameType::kResolve, rm);
    ++sent_;
    ++resolves_sent_;
  }

  static void patch(EdgeRecord& e, const MirrorEntry& entry) {
    if (entry.overflow) {
      e.kind = EdgeKind::Overflow;
    } else {
      e.child = entry.child;
    }
  }

  void on_resolve(const ResolveMsg& m) {
    ++processed_;
    const auto it = mirror_entries_.find(m.mirror_id);
    if (it == mirror_entries_.end()) {
      protocol("resolve for an unknown mirror id");
    }
    MirrorEntry& entry = it->second;
    entry.resolved = true;
    entry.overflow = m.overflow != 0;
    entry.child = m.child;
    for (const auto& [node, edge_index] : entry.waiters) {
      patch(node->edges[edge_index], entry);
    }
    entry.waiters.clear();
  }

  void on_probe(const ProbeMsg& m) {
    ProbeAckMsg ack;
    ack.nonce = m.nonce;
    ack.worker = setup_.worker_index;
    ack.sent = sent_;
    ack.processed = processed_;
    ack.idle = tasks_.empty() ? 1 : 0;
    ack.paused = paused_ ? 1 : 0;
    ack.owned = store_->size();
    // Report the working set: spilled segments are reclaimable page
    // cache, so the coordinator's fleet-RSS budget must not see them.
    ack.rss_bytes = sched::internal::working_set_bytes(
        store_->stats().spilled_bytes + mirror_->stats().spilled_bytes);
    send_msg(FrameType::kProbeAck, ack);
  }

  /// Expand one owned state the way the serial DFS does: classify it
  /// and, when it is Expanded, add one edge per eligible choice, in
  /// order.  So the merged graph is the one the serial DFS walks.
  void expand(const Task& t) {
    NodeRecord* node = t.node;
    const sem::Machine state = store_->materialize(node->id);
    std::vector<sem::Choice> eligible;
    node->kind = sched::internal::classify(prg_, setup_.options, state.grid,
                                           t.depth, eligible,
                                           node->stuck_reason);
    if (node->kind != NodeKind::Expanded) return;
    node->edges.reserve(eligible.size());
    for (const sem::Choice& c : eligible) {
      EdgeRecord& e = node->edges.emplace_back();
      e.choice = c;
      sem::Machine child(state);
      const sem::StepResult sr = sem::apply_choice(
          prg_, kc_, child, c, setup_.options.step_opts, nullptr);
      if (sr.ok()) {
        add_child(t, e, child);
      } else {
        e.kind = EdgeKind::Fault;
        e.fault = sr.fault;
      }
    }
  }

  /// Name the child of `e`, the last edge of t.node.  A child hashing
  /// to a foreign partition is interned remotely via kState/kResolve.
  void add_child(const Task& t, EdgeRecord& e, const sem::Machine& child) {
    NodeRecord* node = t.node;
    const std::uint64_t h = child.hash();  // memoized pre-intern
    const std::uint32_t owner = owner_of(h, setup_.n_workers);
    if (owner == setup_.worker_index) {
      // The expanding node seeds delta encoding, as in the serial DFS.
      const auto r =
          store_->intern(child, setup_.options.max_states, node->id);
      if (!r.id.valid()) {
        e.kind = EdgeKind::Overflow;
        return;
      }
      e.child = Gid::make(setup_.worker_index, r.id.v);
      if (r.inserted) {
        tasks_.push_back(Task{add_node(r.id), t.depth + 1});
        die_check();
      }
      return;
    }
    // Foreign child: dedup through the mirror store so each distinct
    // remote state is shipped (and resolved) exactly once.
    const auto mr = mirror_->intern(child);
    const auto edge_index =
        static_cast<std::uint32_t>(node->edges.size() - 1);
    MirrorEntry& entry = mirror_entries_[mr.id.v];
    if (entry.resolved) {
      patch(e, entry);
    } else {
      entry.waiters.emplace_back(node, edge_index);
    }
    if (mr.inserted) {
      BinWriter sw;
      mirror_->encode_state(mr.id, sw);
      StateMsg sm;
      sm.target = owner;
      sm.parent = Gid::make(setup_.worker_index, node->id.v);
      sm.edge_index = edge_index;
      sm.mirror_id = mr.id.v;
      sm.depth = t.depth + 1;
      sm.state = sw.take();
      send_msg(FrameType::kState, sm);
      ++sent_;
      ++frontier_sent_;
    }
  }

  std::vector<NodeRecord> snapshot_nodes() const {
    for (const NodeRecord& n : nodes_) {
      for (const EdgeRecord& e : n.edges) {
        if (e.pending()) {
          protocol("serializing a graph with unresolved edges (the "
                   "coordinator skipped quiescence)");
        }
      }
    }
    return {nodes_.begin(), nodes_.end()};
  }

  void on_write_checkpoint(const WriteCheckpointMsg& m) {
    CheckpointAckMsg ack;
    ack.worker = setup_.worker_index;
    try {
      WorkerCheckpointMsg ck;
      ck.program_fp = setup_.program_fp;
      ck.config_fp = setup_.config_fp;
      ck.options = setup_.options;
      ck.n_workers = setup_.n_workers;
      ck.worker_index = setup_.worker_index;
      ck.generation = m.generation;
      ck.has_root = has_root_ ? 1 : 0;
      ck.root_local = root_local_;
      BinWriter sw;
      store_->encode(sw);
      ck.store = sw.take();
      ck.nodes = snapshot_nodes();
      ck.frontier.reserve(tasks_.size());
      for (const Task& t : tasks_) {
        ck.frontier.emplace_back(t.node->id.v, t.depth);
      }
      BinWriter w;
      ck.encode(w);
      write_frame_file(
          worker_checkpoint_path(setup_.checkpoint_base, m.generation,
                                 setup_.worker_index),
          FrameType::kWorkerCheckpoint, w.buffer());
      ckpt_written_gen_ = m.generation;
      ack.ok = 1;
    } catch (const std::exception& e) {
      ack.ok = 0;
      ack.error = e.what();
    }
    send_msg(FrameType::kCheckpointAck, ack);
  }

  void on_dump() {
    GraphPartMsg part;
    part.worker = setup_.worker_index;
    part.has_root = has_root_ ? 1 : 0;
    part.root_local = root_local_;
    BinWriter sw;
    store_->encode(sw);
    part.store = sw.take();
    part.nodes = snapshot_nodes();
    part.owned = store_->size();
    part.store_stats = store_->stats();
    part.frontier_sent = frontier_sent_;
    part.resolves_sent = resolves_sent_;
    part.bytes_sent = bytes_out_;
    part.bytes_received = bytes_in_;
    send_msg(FrameType::kGraphPart, part);
  }

  /// Resume: reload this partition from its generation file.  The
  /// cut was quiescent, so every edge is resolved and the mirror cache
  /// can start empty — re-sending a state the owner already holds is
  /// answered from its store without re-expansion.
  void restore() {
    const std::string path = worker_checkpoint_path(
        setup_.resume_base, setup_.generation, setup_.worker_index);
    const Frame f = load_frame_file(path, FrameType::kWorkerCheckpoint);
    WorkerCheckpointMsg ck;
    try {
      BinReader r(f.payload);
      ck = WorkerCheckpointMsg::decode(r);
      if (!r.done()) throw BinError("trailing bytes after payload");
    } catch (const BinError& e) {
      throw sched::CheckpointError(sched::CheckpointError::Kind::Corrupt,
                                   std::string(e.what()) + " in " + path);
    }
    if (ck.program_fp != setup_.program_fp ||
        ck.config_fp != setup_.config_fp) {
      throw sched::CheckpointError(
          sched::CheckpointError::Kind::Mismatch,
          path + " belongs to a different run");
    }
    if (ck.n_workers != setup_.n_workers ||
        ck.worker_index != setup_.worker_index ||
        ck.generation != setup_.generation) {
      throw sched::CheckpointError(
          sched::CheckpointError::Kind::Mismatch,
          path + " belongs to a different partition or generation");
    }
    try {
      BinReader sr(ck.store);
      store_->decode(sr);
      if (!sr.done()) throw BinError("trailing bytes after store");
    } catch (const BinError& e) {
      throw sched::CheckpointError(sched::CheckpointError::Kind::Corrupt,
                                   std::string(e.what()) + " in " + path);
    }
    for (NodeRecord& rec : ck.nodes) {
      nodes_.push_back(std::move(rec));
      node_of_.emplace(nodes_.back().id.v, &nodes_.back());
    }
    has_root_ = ck.has_root != 0;
    root_local_ = ck.root_local;
    for (const auto& [local, depth] : ck.frontier) {
      const auto it = node_of_.find(local);
      if (it == node_of_.end()) {
        throw sched::CheckpointError(
            sched::CheckpointError::Kind::Corrupt,
            "frontier references unknown node in " + path);
      }
      tasks_.push_back(Task{it->second, depth});
    }
  }

  const int fd_;
  const ptx::Program& prg_;
  const sem::KernelConfig& kc_;
  FrameReader reader_;
  SetupMsg setup_;
  bool have_setup_ = false;
  bool paused_ = false;
  /// Highest generation this worker has written a checkpoint for
  /// (gates the die seam, see die_check()).
  std::uint64_t ckpt_written_gen_ = 0;
  bool stop_ = false;

  // Pointers so a kRollback can discard and rebuild them wholesale
  // (StateStore is not movable — it owns a spill file).
  std::unique_ptr<sched::StateStore> store_;   // owned partition
  std::unique_ptr<sched::StateStore> mirror_;  // foreign-child dedup cache
  std::deque<NodeRecord> nodes_;  // stable addresses, insertion order
  std::unordered_map<std::uint32_t, NodeRecord*> node_of_;  // by StateId.v
  std::deque<Task> tasks_;
  std::unordered_map<std::uint32_t, MirrorEntry> mirror_entries_;
  bool has_root_ = false;
  std::uint32_t root_local_ = 0;

  // Monotone work-frame counters (kState + kResolve) feeding the
  // coordinator's two-round quiescence detector.
  std::uint64_t sent_ = 0;
  std::uint64_t processed_ = 0;
  std::uint64_t frontier_sent_ = 0;
  std::uint64_t resolves_sent_ = 0;
  std::uint64_t bytes_in_ = 0;
  std::uint64_t bytes_out_ = 0;
};

}  // namespace

void run_worker(int fd, const ptx::Program& prg,
                const sem::KernelConfig& kc) {
  Worker w(fd, prg, kc);
  w.run();
}

}  // namespace cac::dist
