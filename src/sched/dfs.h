// The verdict DFS: the one place where an exploration's verdict is
// decided, and the serial engine's walk that drives it.  Internal to
// src/sched (BM_DfsTransitionSplit in bench/bench_parallel_explore.cpp
// wraps the walk in timers, and tests/sched/successor_cache_test.cc
// drives the DFS with a walk that steps every transition).
//
// The paper's theorems quantify over every scheduler (Fig. 3).  Here
// that quantifier is decided by a depth-first walk of the state graph:
// OnStack/Done colouring finds cycles, each state's first visit
// classifies it (terminal, stuck, unexpanded, expandable), and the walk
// accumulates the finals, the violations with their replayable traces,
// the min/max schedule lengths and the state/transition counts.  How a
// transition's child is obtained, and how a state is classified, is the
// Walk parameter: the serial engine's SerialWalk (below) works on state
// ids and builds a machine only where the kernel must run.
//
// A Walk provides
//
//   using Key = ...;                       // names one state
//   struct Frame { Key key; ... };         // one stack entry
//   Color& color(Key);
//   bool next(Frame& top, Arrival<Key>&);  // false once top is exhausted
//   NodeKind classify(Key, std::uint64_t depth, std::string& stuck);
//   Frame open(Key);                       // an Expanded state's frame
//
// classify() runs once per state, on its first visit, with the length
// of the path that reached it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sched/explore.h"
#include "sem/step.h"

namespace cac::sched {

/// What expanding a state found (internal::classify decides it).
enum class NodeKind : std::uint8_t {
  /// Not expanded: reached at the depth bound.
  Unexpanded,
  /// Expanded: one transition per eligible choice (after POR), in order.
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

/// DFS colour; White = not entered yet.
enum class Color : std::uint8_t { White, OnStack, Done };

}  // namespace cac::sched

namespace cac::sched::internal {

/// The one state classification, here of a machine's grid: Terminal
/// when every warp is complete; Stuck when no choice is eligible after
/// POR (the reason goes to `stuck_reason`); Unexpanded when `depth` has
/// reached opts.max_depth; else Expanded, with the choices to follow in
/// `eligible`, in order.  SerialWalk applies the same rule to the warp
/// statuses it caches by fragment id.
NodeKind classify(const ptx::Program& prg, const ExploreOptions& opts,
                  const sem::Grid& g, std::uint64_t depth,
                  std::vector<sem::Choice>& eligible,
                  std::string& stuck_reason);

/// One transition out of the top frame (or the root, with no choice).
template <typename Key>
struct Arrival {
  EdgeKind kind = EdgeKind::Child;
  sem::Choice choice;
  Key child{};                          // kind == Child
  const std::string* fault = nullptr;   // kind == Fault
};

template <typename Walk>
class VerdictDfs {
 public:
  using Key = typename Walk::Key;
  using Frame = typename Walk::Frame;

  VerdictDfs(Walk& walk, const ExploreOptions& opts)
      : walk_(walk), opts_(opts) {
    result.min_steps_to_termination = ~0ull;
  }

  // The walk's state, public so the serial engine can checkpoint and
  // restore it at its loop-top cut.
  ExploreResult result;  // final_ids stay empty: see finals
  /// Terminal states in first-visit order.  A terminal state is entered
  /// once, so no final repeats.
  std::vector<Key> finals;
  bool limits_hit = false;
  std::vector<Frame> stack;
  std::vector<sem::Choice> path;  // choices reaching the top frame

  void hit_limit(ExploreResult::Limit l) {
    limits_hit = true;
    if (result.limit_hit == ExploreResult::Limit::None) result.limit_hit = l;
  }

  [[nodiscard]] bool active() const {
    return !stack.empty() &&
           !(opts_.stop_at_first_violation && !result.violations.empty());
  }

  /// Follow one transition (or enter the root, with an empty path).
  /// Returns true when the child was pushed as the new top frame.
  bool arrive(const Arrival<Key>& a) {
    switch (a.kind) {
      case EdgeKind::Fault:
        violate(Violation::Kind::Fault, *a.fault);
        return false;
      case EdgeKind::Overflow:
        hit_limit(ExploreResult::Limit::MaxStates);
        return false;
      case EdgeKind::Child:
        break;
    }
    Color& color = walk_.color(a.child);
    if (color == Color::OnStack) {
      violate(Violation::Kind::Cycle,
              "schedule revisits an earlier state: a scheduler can loop "
              "forever");
      return false;
    }
    if (color == Color::Done) return false;
    if (result.states_visited >= opts_.max_states) {
      hit_limit(ExploreResult::Limit::MaxStates);
      return false;
    }
    ++result.states_visited;

    std::string stuck;
    const NodeKind kind = walk_.classify(a.child, path.size(), stuck);
    color = Color::Done;
    switch (kind) {
      case NodeKind::Terminal:
        result.min_steps_to_termination =
            std::min<std::uint64_t>(result.min_steps_to_termination,
                                    path.size());
        result.max_steps_to_termination =
            std::max<std::uint64_t>(result.max_steps_to_termination,
                                    path.size());
        finals.push_back(a.child);
        return false;
      case NodeKind::Stuck:
        violate(Violation::Kind::Stuck, std::move(stuck));
        return false;
      case NodeKind::Unexpanded:
        hit_limit(ExploreResult::Limit::MaxDepth);
        depth_exceeded();
        return false;
      case NodeKind::Expanded:
        color = Color::OnStack;
        stack.push_back(walk_.open(a.child));
        return true;
    }
    return false;
  }

  /// One loop iteration: take the top frame's next transition, or pop
  /// the frame when it has none left.
  void step() {
    Frame& top = stack.back();
    Arrival<Key> a;
    if (!walk_.next(top, a)) {
      walk_.color(top.key) = Color::Done;
      stack.pop_back();
      if (!path.empty()) path.pop_back();
      return;
    }
    ++result.transitions;
    path.push_back(a.choice);
    if (!arrive(a)) path.pop_back();
  }

  void run() {
    while (active()) step();
  }

  /// Close the verdict (the caller maps `finals` to result.final_ids).
  void finish() {
    if (result.min_steps_to_termination == ~0ull) {
      result.min_steps_to_termination = 0;
    }
    result.exhaustive = !limits_hit && stack.empty();
  }

 private:
  void violate(Violation::Kind kind, std::string message) {
    result.violations.push_back({kind, std::move(message), path});
  }
  void depth_exceeded() {
    violate(Violation::Kind::DepthExceeded,
            "path exceeded the exploration depth bound");
  }

  Walk& walk_;
  const ExploreOptions& opts_;
};

/// The serial engine's walk, over state ids.  A frame holds a state's
/// id and its eligible choices, and no machine.
///
/// A state is classified from its warps' sem::WarpStatus, which the
/// walk computes once per warp fragment: a status is a function of the
/// program and the warp's value, and fragments are interned (equal ids
/// <=> equal warps), so a status cached by id is exact.  The statuses
/// also give each ExecWarp choice its successor-cache key.  A cached
/// step interns the child's id tuple directly.  Anything else — a cache
/// miss, a lift-bar, a faulting step — materializes the parent, steps
/// it with sem::apply_choice and interns the child, recording an
/// ExecWarp step that did not fault; a stuck state is materialized for
/// sem::stuck_reason.  Interning compares id tuples of interned
/// fragments, so a revisit is detected across paths and a hash
/// collision cannot fake one.
class SerialWalk {
 public:
  using Key = StateId;
  struct Frame {
    StateId key;
    std::vector<sem::Choice> eligible;
    std::size_t next = 0;
  };

  SerialWalk(const ptx::Program& prg, const sem::KernelConfig& kc,
             const ExploreOptions& opts, StateStore& store);

  /// DFS colours by StateId.v.  A state the store held before this
  /// transition was entered when it was interned, so it is Done unless
  /// it is on the stack; that is also how a resumed run's colours come
  /// back without being stored.
  Color& color(StateId id) {
    if (id.v >= colors_.size()) colors_.resize(id.v + 1, Color::Done);
    return colors_[id.v];
  }

  bool next(Frame& top, Arrival<StateId>& a);
  NodeKind classify(StateId id, std::uint64_t depth, std::string& stuck);
  /// The frame of the state classify() last saw.
  Frame open(StateId id);
  Arrival<StateId> root(const sem::Machine& initial);

 private:
  /// Fragment `frag`'s status, computed the first time it is seen.
  /// The reference lasts until the table next grows.
  const sem::WarpStatus& status(std::uint32_t frag);
  /// Tuple positions of each block's warp 0, once the store has a shape.
  void index_shape();
  void land(const StateStore::InternResult& r, Arrival<StateId>& a);

  const ptx::Program& prg_;
  const sem::KernelConfig& kc_;
  const ExploreOptions& opts_;
  StateStore& store_;
  /// By warp fragment id.  They depend on the program, so they live
  /// here and not in the store.
  std::vector<std::optional<sem::WarpStatus>> statuses_;
  std::vector<std::uint32_t> first_warp_;
  std::uint32_t warp_slots_ = 0;  // warps per state
  std::vector<sem::Choice> eligible_;  // of the last state classified
  std::string fault_;
  std::vector<Color> colors_;
};

}  // namespace cac::sched::internal
