// The explicit state graph of the distributed explorer.
//
// One record describes a graph node everywhere it is stored or sent:
// a worker's in-memory partition, its graph part (GraphPartMsg) and its
// partition checkpoint (WorkerCheckpointMsg); one codec writes it
// (wire.cc).  GraphNode is the linked form the coordinator merges the
// workers' parts into; the verdict DFS (sched/dfs.h) walks it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sched/dfs.h"
#include "sched/state_store.h"
#include "sem/step.h"

namespace cac::dist {

using sched::Color;
using sched::EdgeKind;
using sched::NodeKind;

/// Global state id: (owning worker, StateId.v in that worker's
/// partition store), so a Gid names a state outside the process that
/// interned it.
struct Gid {
  static constexpr std::uint64_t kInvalid = ~0ull;
  std::uint64_t v = kInvalid;

  static Gid make(std::uint32_t owner, std::uint32_t local) {
    return Gid{(static_cast<std::uint64_t>(owner) << 32) | local};
  }
  [[nodiscard]] std::uint32_t worker() const {
    return static_cast<std::uint32_t>(v >> 32);
  }
  [[nodiscard]] std::uint32_t local() const {
    return static_cast<std::uint32_t>(v);
  }
  [[nodiscard]] bool valid() const { return v != kInvalid; }
  friend bool operator==(const Gid&, const Gid&) = default;
};

struct EdgeRecord {
  sem::Choice choice;
  EdgeKind kind = EdgeKind::Child;
  /// Valid iff kind == Child, except on a worker whose remote child has
  /// not been answered by its owner yet (pending()).
  Gid child;
  std::string fault;  // kind == Fault

  [[nodiscard]] bool pending() const {
    return kind == EdgeKind::Child && !child.valid();
  }
};

struct NodeRecord {
  sched::StateId id;  // in the owner's store
  NodeKind kind = NodeKind::Unexpanded;
  std::string stuck_reason;  // kind == Stuck
  std::vector<EdgeRecord> edges;
};

/// A NodeRecord whose children are resolved to nodes.  Nodes live in a
/// deque (stable addresses) owned by the coordinator's merge.
struct GraphNode {
  struct Edge : EdgeRecord {
    GraphNode* node = nullptr;  // the child, when kind == Child
  };

  sched::StateId id;
  std::uint32_t owner = 0;  // the store `id` belongs to
  NodeKind kind = NodeKind::Unexpanded;
  Color color = Color::White;  // the verdict DFS's scratch
  std::string stuck_reason;
  std::vector<Edge> edges;

  /// Take `rec`'s kind and edges, resolving each child Gid with
  /// `lookup` (which throws on a Gid it does not know).
  template <typename Lookup>
  void link(const NodeRecord& rec, Lookup&& lookup) {
    kind = rec.kind;
    stuck_reason = rec.stuck_reason;
    edges.clear();
    for (const EdgeRecord& e : rec.edges) {
      edges.push_back(
          {e, e.kind == EdgeKind::Child ? lookup(e.child) : nullptr});
    }
  }
};

}  // namespace cac::dist
