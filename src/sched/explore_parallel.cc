// The parallel engine: a work-stealing graph builder, then the verdict
// DFS (dfs.h) over the built graph.
//
//  1. Graph construction (parallel).  Workers with per-worker task
//     deques and work stealing expand each distinct reachable state
//     exactly once — copy, step, hash — into an explicit state graph.
//     The visited set is sharded by state hash; structural equality
//     within a shard means a hash collision can never fake a visit.
//     This phase carries all of the expensive per-state work.
//
//  2. Verdict replay (serial, integer-only).  The DFS the serial engine
//     runs — the same template, so the same choice order, colouring and
//     bookkeeping — walks the graph without touching machine states.
//     State expansion is deterministic in the state, so phase 1 builds
//     the graph the serial DFS walks and the verdict is byte-identical
//     to the serial engine's for runs within the state/depth limits.
//
// Partial-order reduction composes: the persistent-set filter is a
// deterministic function of the state, so the reduced graph is also
// thread-count independent.  When a run trips max_states or max_depth,
// phase 1 may cut a different part of the graph than the serial DFS
// would (docs/explorer.md); both engines report exhaustive == false.
#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "sched/checkpoint.h"
#include "sched/dfs.h"
#include "sched/explore_internal.h"
#include "support/diag.h"

namespace cac::sched::internal {

namespace {

// Machine states live interned in the shared StateStore; graph nodes
// hold only the StateId and live in per-shard deques (stable addresses;
// grown only under the shard mutex).  After a node is registered, its
// fields are written exclusively by the single worker expanding it; the
// work-queue mutexes order that hand-off, and the thread join orders the
// final reads by the replay.

/// Sharded concurrent visited set over the interning StateStore.
/// Shards are keyed by the memoized structural machine hash, so
/// structurally equal machines always race on the *same* shard mutex —
/// intern-and-register is atomic per state, and dedup semantics are
/// identical to the serial explorer's (structural equality inside the
/// store; a hash collision cannot fake a visit).
class VisitedShards {
 public:
  VisitedShards(std::uint64_t max_states, StateStore& store)
      : store_(store), max_states_(max_states) {}

  struct InsertResult {
    GraphNode* node = nullptr;  // nullptr: dropped at the state cap
    StateId id;  // node->id, without touching a node another worker owns
    bool inserted = false;
  };

  /// Find the node for the state structurally equal to `m`, or intern
  /// `m` and register a fresh node.  The caller must have computed
  /// m.hash() already (it is the owner thread).  `parent` (the node
  /// being expanded) seeds the store's delta encoding.
  InsertResult find_or_insert(const sem::Machine& m, std::uint64_t hash,
                              StateId parent = StateId{}) {
    Shard& s = shards_[shard_of(hash)];
    std::lock_guard<std::mutex> lock(s.mu);
    const auto r = store_.intern(m, max_states_, parent);
    if (!r.id.valid()) return {};
    const auto [it, fresh] = s.node_of.try_emplace(r.id.v, nullptr);
    if (fresh) it->second = &s.add(r.id);
    return {it->second, r.id, fresh};
  }

  /// Resume path (single-threaded, before workers start): register a
  /// node for a state that is already interned in the store.
  GraphNode* seed(StateId id, std::uint64_t hash) {
    Shard& s = shards_[shard_of(hash)];
    GraphNode* n = &s.add(id);
    s.node_of[id.v] = n;
    return n;
  }

  /// Visit every registered node.  Requires quiescence (workers parked
  /// or joined).
  template <typename Fn>
  void for_each(Fn&& fn) const {
    for (const Shard& s : shards_) {
      for (const GraphNode& n : s.nodes) fn(n);
    }
  }

 private:
  static constexpr unsigned kShardCount = 64;

  static unsigned shard_of(std::uint64_t hash) {
    // The machine hash is splitmix-finalized; the top bits are as good
    // as any (the store's internal sharding uses the low bits).
    return static_cast<unsigned>(hash >> 58) & (kShardCount - 1);
  }

  struct Shard {
    std::mutex mu;
    std::unordered_map<std::uint32_t, GraphNode*> node_of;  // StateId.v
    std::deque<GraphNode> nodes;  // stable addresses

    GraphNode& add(StateId id) {
      nodes.emplace_back();
      nodes.back().id = id;
      return nodes.back();
    }
  };

  StateStore& store_;
  Shard shards_[kShardCount];
  const std::uint64_t max_states_;
};

struct Task {
  GraphNode* node = nullptr;
  std::uint64_t depth = 0;
};

/// Per-worker deque: the owner pushes/pops at the back (depth-first,
/// cache-warm), thieves take from the front (breadth-first, large
/// subtrees).  A plain mutex per deque is plenty at this granularity —
/// one lock per state expansion.
struct WorkQueue {
  std::mutex mu;
  std::deque<Task> q;

  void push(Task t) {
    std::lock_guard<std::mutex> lock(mu);
    q.push_back(t);
  }
  bool pop_back(Task& out) {
    std::lock_guard<std::mutex> lock(mu);
    if (q.empty()) return false;
    out = q.back();
    q.pop_back();
    return true;
  }
  bool steal_front(Task& out) {
    std::lock_guard<std::mutex> lock(mu);
    if (q.empty()) return false;
    out = q.front();
    q.pop_front();
    return true;
  }
};

/// Phase 1: expand every distinct reachable state exactly once.
///
/// Crash safety rides on a three-state control protocol the main
/// thread drives while workers run:
///
///   kRun   -> workers pop/steal/expand as fast as they can;
///   kPause -> workers park at the loop-top gate; once every worker is
///             parked or exited the graph is quiescent and the main
///             thread serializes a checkpoint, then resumes;
///   kStop  -> workers exit at the gate.  A task already popped is
///             fully expanded first (its children reach the queues),
///             so the frontier captured afterwards is exactly the set
///             of discovered-but-unexpanded states.
///
/// All control state lives under one mutex; per-node writes by workers
/// are ordered before the main thread's reads by that same mutex
/// (gate lock -> paused_/exited_ increment -> monitor observes), so
/// checkpoint serialization is race-free.
class GraphBuilder {
 public:
  GraphBuilder(const ptx::Program& prg, const sem::KernelConfig& kc,
               const ExploreOptions& opts,
               std::shared_ptr<StateStore> store, unsigned n_workers)
      : prg_(prg),
        kc_(kc),
        opts_(opts),
        store_ptr_(std::move(store)),
        store_(*store_ptr_),
        visited_(opts.max_states, store_),
        queues_(n_workers) {}

  /// Build (or, with `resume`, finish building) the state graph.
  /// Returns the root, null when even the initial state was dropped
  /// (max_states == 0 — the replay reports that as a state-cap hit).
  GraphNode* build(const sem::Machine& initial, const Checkpoint* resume) {
    if (resume != nullptr) {
      root_ = restore(*resume);
    } else {
      const sem::Machine root_copy(initial);
      const auto r = visited_.find_or_insert(root_copy, root_copy.hash());
      root_ = r.node;
      if (!r.inserted) return root_;
      pending_.store(1, std::memory_order_relaxed);
      queues_[0].push(Task{r.node, 0});
    }

    std::vector<std::thread> workers;
    workers.reserve(queues_.size());
    try {
      for (unsigned i = 0; i < queues_.size(); ++i) {
        workers.emplace_back([this, i] { worker_loop(i); });
      }
    } catch (const std::exception& e) {
      // Out of threads (or memory for their stacks): stop and join the
      // workers already running, then fail the run cleanly.
      {
        std::lock_guard<std::mutex> lk(ctl_mu_);
        mode_ = Mode::kStop;
      }
      ctl_cv_.notify_all();
      for (std::thread& t : workers) t.join();
      throw std::runtime_error("cannot start " +
                               std::to_string(queues_.size()) +
                               " exploration threads: " + e.what());
    }
    monitor();
    for (std::thread& t : workers) t.join();

    if (!error_.empty()) throw KernelError(error_);

    if (stopped != ExploreResult::Limit::None &&
        !opts_.checkpoint_path.empty()) {
      // Final checkpoint after the join: fully quiescent by
      // construction.
      save_checkpoint();
    }
    return root_;
  }

  /// The budget that stopped the build early, or None.
  ExploreResult::Limit stopped = ExploreResult::Limit::None;
  CheckpointTally tally;

 private:
  enum class Mode : std::uint8_t { kRun, kPause, kStop };

  /// Rebuild graph + frontier from a checkpoint (single-threaded; the
  /// store has already been decoded into store_).
  GraphNode* restore(const Checkpoint& ck) {
    std::unordered_map<std::uint32_t, GraphNode*> by_id;
    by_id.reserve(ck.nodes.size());
    for (const NodeRecord& rec : ck.nodes) {
      by_id.emplace(rec.id.v,
                    visited_.seed(rec.id, store_.machine_hash(rec.id)));
    }
    const auto lookup = [&](Gid gid) -> GraphNode* {
      const auto it = gid.worker() == 0 ? by_id.find(gid.local())
                                        : by_id.end();
      if (it == by_id.end()) {
        throw CheckpointError(CheckpointError::Kind::Corrupt,
                              "graph references unknown node");
      }
      return it->second;
    };
    for (const NodeRecord& rec : ck.nodes) {
      by_id.at(rec.id.v)->link(rec, lookup);
    }
    std::uint64_t k = 0;
    for (const auto& [id, depth] : ck.frontier) {
      queues_[k++ % queues_.size()].push(
          Task{lookup(Gid::make(0, id.v)), depth});
    }
    pending_.store(ck.frontier.size(), std::memory_order_relaxed);
    return lookup(Gid::make(0, ck.root.v));
  }

  void worker_loop(unsigned id) {
    Task t;
    for (;;) {
      // Control gate: park on pause, leave on stop.  Everything this
      // worker wrote to nodes before reaching the gate is ordered
      // before the monitor's reads by ctl_mu_.
      {
        std::unique_lock<std::mutex> lk(ctl_mu_);
        while (mode_ == Mode::kPause) {
          ++paused_;
          monitor_cv_.notify_all();
          ctl_cv_.wait(lk, [&] { return mode_ != Mode::kPause; });
          --paused_;
        }
        if (mode_ == Mode::kStop) break;
      }

      bool got = queues_[id].pop_back(t);
      for (unsigned j = 1; !got && j < queues_.size(); ++j) {
        got = queues_[(id + j) % queues_.size()].steal_front(t);
      }
      if (!got) {
        if (pending_.load(std::memory_order_acquire) == 0) break;
        std::this_thread::yield();
        continue;
      }
      try {
        expand(id, t);
      } catch (const std::exception& e) {
        failed_.store(true, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(error_mu_);
        if (error_.empty()) error_ = e.what();
        // Drain without expanding so every worker exits promptly.
      }
      pending_.fetch_sub(1, std::memory_order_release);
    }
    std::lock_guard<std::mutex> lk(ctl_mu_);
    ++exited_;
    monitor_cv_.notify_all();
  }

  void expand(unsigned id, const Task& t) {
    // Poisoned run: stop growing the graph so workers drain quickly.
    if (failed_.load(std::memory_order_relaxed)) return;
    GraphNode* node = t.node;
    internal::expand(
        prg_, kc_, opts_, store_.materialize(node->id), t.depth, *node,
        [&](GraphNode::Edge& e, const sem::Machine& child) {
          const std::uint64_t h = child.hash();  // memoized pre-intern
          const auto r = visited_.find_or_insert(child, h, node->id);
          if (r.node == nullptr) {
            e.kind = EdgeKind::Overflow;
            return;
          }
          e.child = Gid::make(0, r.id.v);
          e.node = r.node;
          if (r.inserted) {
            pending_.fetch_add(1, std::memory_order_relaxed);
            queues_[id].push(Task{r.node, t.depth + 1});
          }
        });
  }

  /// Main-thread loop while workers run: waits for completion, and
  /// enforces budgets / periodic checkpoints when configured.
  void monitor() {
    const unsigned n = static_cast<unsigned>(queues_.size());
    const Budget budget(opts_);
    const bool periodic = !opts_.checkpoint_path.empty() &&
                          opts_.checkpoint_every_states != 0;

    std::unique_lock<std::mutex> lk(ctl_mu_);
    if (!budget.any() && !periodic) {
      monitor_cv_.wait(lk, [&] { return exited_ == n; });
      return;
    }

    std::uint64_t next_checkpoint_at =
        periodic ? store_.size() + opts_.checkpoint_every_states : ~0ull;

    for (;;) {
      monitor_cv_.wait_for(lk, std::chrono::milliseconds(2),
                           [&] { return exited_ == n; });
      if (exited_ == n) return;

      const ExploreResult::Limit stop =
          budget.tripped(store_.size(), /*poll_slow=*/true, [&] {
            return working_set_bytes(store_.stats().spilled_bytes);
          });
      if (stop != ExploreResult::Limit::None) {
        stopped = stop;
        mode_ = Mode::kStop;
        ctl_cv_.notify_all();
        monitor_cv_.wait(lk, [&] { return exited_ == n; });
        return;  // final checkpoint happens after the join
      }
      if (store_.size() >= next_checkpoint_at) {
        // Quiesce -> serialize -> resume.
        mode_ = Mode::kPause;
        ctl_cv_.notify_all();
        monitor_cv_.wait(lk, [&] { return paused_ + exited_ == n; });
        save_checkpoint();
        next_checkpoint_at = store_.size() + opts_.checkpoint_every_states;
        mode_ = Mode::kRun;
        ctl_cv_.notify_all();
      }
    }
  }

  /// Serialize graph + frontier + store.  Caller guarantees
  /// quiescence (pause protocol or post-join).
  void save_checkpoint() {
    Checkpoint ck;
    ck.engine = Checkpoint::Engine::Parallel;
    ck.program_fp = program_fingerprint(prg_);
    ck.config_fp = config_fingerprint(kc_);
    ck.options = opts_;  // only structural fields are persisted
    ck.store = store_ptr_;
    ck.root = root_ != nullptr ? root_->id : StateId{};
    visited_.for_each(
        [&](const GraphNode& n) { ck.nodes.push_back(n.record()); });
    for (WorkQueue& q : queues_) {
      std::lock_guard<std::mutex> lock(q.mu);
      for (const Task& t : q.q) ck.frontier.emplace_back(t.node->id, t.depth);
    }
    tally.attempt([&] { ck.save(opts_.checkpoint_path); });
  }

  const ptx::Program& prg_;
  const sem::KernelConfig& kc_;
  const ExploreOptions& opts_;
  std::shared_ptr<StateStore> store_ptr_;
  StateStore& store_;
  VisitedShards visited_;
  std::vector<WorkQueue> queues_;
  GraphNode* root_ = nullptr;
  std::atomic<std::uint64_t> pending_{0};
  std::atomic<bool> failed_{false};
  std::mutex error_mu_;
  std::string error_;  // first worker exception, guarded by error_mu_

  // Worker control protocol, all guarded by ctl_mu_.
  std::mutex ctl_mu_;
  std::condition_variable ctl_cv_;      // workers park here on pause
  std::condition_variable monitor_cv_;  // monitor waits for quiescence
  Mode mode_ = Mode::kRun;
  unsigned paused_ = 0;
  unsigned exited_ = 0;
};

/// The walk over a built graph.
struct GraphWalk {
  using Key = GraphNode*;
  struct Frame {
    GraphNode* key;
    std::size_t next = 0;
  };

  static Color& color(GraphNode* n) { return n->color; }

  static bool next(Frame& top, Arrival<GraphNode*>& a) {
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

}  // namespace

ExploreResult replay_graph(GraphNode* root, const ExploreOptions& opts,
                           ExploreResult::Limit stopped,
                           std::vector<const GraphNode*>& finals) {
  GraphWalk walk;
  VerdictDfs<GraphWalk> dfs(walk, opts);
  dfs.unexpanded_limit = stopped;
  Arrival<GraphNode*> a;
  a.kind = root != nullptr ? EdgeKind::Child : EdgeKind::Overflow;
  a.child = root;
  dfs.arrive(a);
  dfs.run();
  dfs.finish();
  finals.assign(dfs.finals.begin(), dfs.finals.end());
  return std::move(dfs.result);
}

ExploreResult build_and_replay(const ptx::Program& prg,
                               const sem::KernelConfig& kc,
                               const sem::Machine& initial,
                               const ExploreOptions& opts, unsigned threads,
                               const Checkpoint* resume,
                               std::shared_ptr<StateStore> store) {
  GraphBuilder builder(prg, kc, opts, std::move(store), threads);
  GraphNode* root = builder.build(initial, resume);
  std::vector<const GraphNode*> finals;
  ExploreResult result = replay_graph(root, opts, builder.stopped, finals);
  result.final_ids.reserve(finals.size());
  for (const GraphNode* n : finals) result.final_ids.push_back(n->id);
  builder.tally.report(result);
  return result;
}

}  // namespace cac::sched::internal
