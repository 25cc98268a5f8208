// The explicit state graph of the parallel and distributed engines.
//
// One record describes a graph node everywhere it is stored or sent:
// the parallel engine's checkpoint section, the distributed workers'
// graph parts and partition checkpoints, and a distributed worker's own
// in-memory graph; one codec writes it (codec::encode_nodes in
// checkpoint_codec.h).  GraphNode is the linked form the parallel
// builder grows and the distributed coordinator merges worker parts
// into; the verdict DFS (dfs.h) walks it.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sched/state_store.h"
#include "sem/step.h"

namespace cac::sched {

/// Global state id: (owning store, StateId.v in that store).  An
/// in-process graph has one store, owner 0; each distributed worker
/// owns one partition store, so a Gid names a state outside the process
/// that interned it.
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

/// What expanding a state found (internal::classify decides it the same
/// way for every engine).
enum class NodeKind : std::uint8_t {
  /// Not expanded: discovered at the depth bound, or still on the
  /// frontier when a budget stopped the build.
  Unexpanded,
  /// `edges` holds one edge per eligible choice (after POR), in order.
  Expanded,
  Terminal,  // every thread exited
  Stuck,     // not terminated, and no choice is eligible
};

/// Where a transition leads.
enum class EdgeKind : std::uint8_t {
  Child,     // a state
  Fault,     // the step faulted; the child state is discarded
  Overflow,  // the child was dropped at the max_states cap
};

struct EdgeRecord {
  sem::Choice choice;
  EdgeKind kind = EdgeKind::Child;
  /// Valid iff kind == Child, except on a distributed worker whose
  /// remote child has not been answered by its owner yet (pending()).
  Gid child;
  std::string fault;  // kind == Fault

  [[nodiscard]] bool pending() const {
    return kind == EdgeKind::Child && !child.valid();
  }
};

struct NodeRecord {
  StateId id;  // in the owner's store
  NodeKind kind = NodeKind::Unexpanded;
  std::string stuck_reason;  // kind == Stuck
  std::vector<EdgeRecord> edges;
};

/// DFS colour (dfs.h); White = not entered yet.
enum class Color : std::uint8_t { White, OnStack, Done };

/// A NodeRecord whose children are resolved to nodes.  Nodes live in
/// deques (stable addresses) owned by the builder or the coordinator's
/// merge.
struct GraphNode {
  struct Edge : EdgeRecord {
    GraphNode* node = nullptr;  // the child, when kind == Child
  };

  StateId id;
  std::uint32_t owner = 0;  // the store `id` belongs to
  NodeKind kind = NodeKind::Unexpanded;
  Color color = Color::White;  // the verdict DFS's scratch
  std::string stuck_reason;
  std::vector<Edge> edges;

  [[nodiscard]] NodeRecord record() const {
    return {id, kind, stuck_reason, {edges.begin(), edges.end()}};
  }

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

}  // namespace cac::sched
