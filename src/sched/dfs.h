// The verdict DFS: the one place where an exploration's verdict is
// decided.  Internal to src/sched and src/dist.
//
// The paper's theorems quantify over every scheduler (Fig. 3).  Here
// that quantifier is decided by a depth-first walk of the state graph:
// OnStack/Done colouring finds cycles, each state's first visit
// classifies it (terminal, stuck, unexpanded, expandable), and the walk
// accumulates the finals, the violations with their replayable traces,
// the min/max schedule lengths and the state/transition counts.  The
// engines differ only in how a transition's child is obtained, which is
// the Walk parameter:
//
//  * the serial engine steps its frame's machine and interns the child
//    on the fly (explore.cc);
//  * the distributed coordinator walks the graph its workers built
//    (GraphWalk in dist/coordinator.cc).
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
#include <string>
#include <vector>

#include "sched/explore.h"

namespace cac::sched {

/// What expanding a state found (internal::classify decides it the same
/// way for every engine).
enum class NodeKind : std::uint8_t {
  /// Not expanded: discovered at the depth bound, or still on a graph
  /// builder's frontier when a budget stopped the build.
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
  /// What reaching an Unexpanded state means: None for a graph cut by
  /// max_depth, else the budget that stopped the build early.
  ExploreResult::Limit unexpanded_limit = ExploreResult::Limit::None;

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
        if (unexpanded_limit != ExploreResult::Limit::None) {
          // The build stopped on a budget: this state is on the
          // unexpanded frontier, not past the depth bound.
          hit_limit(unexpanded_limit);
          return false;
        }
        // Depth-gated.  A graph builder gates by the depth at which it
        // first met the state; when this path is shorter, the run can
        // only be flagged non-exhaustive.
        hit_limit(ExploreResult::Limit::MaxDepth);
        if (path.size() >= opts_.max_depth) depth_exceeded();
        return false;
      case NodeKind::Expanded:
        if (path.size() >= opts_.max_depth) {
          hit_limit(ExploreResult::Limit::MaxDepth);
          depth_exceeded();
          return false;
        }
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

}  // namespace cac::sched::internal
