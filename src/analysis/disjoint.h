// Pairwise classification of memory access sites and the two consumers
// of the resulting facts:
//
//  * a static race-candidate report (cross-checked against the dynamic
//    detector, check/race.h), and
//  * the set of provably-independent access pcs handed to the explorer
//    as a partial-order-reduction oracle (sched::ExploreOptions).
//
// A pair of sites (a, b) is classified for *distinct* threads: could
// some thread executing a and a different thread executing b touch
// overlapping bytes?  For Shared space the threads live in one block
// (ctaid is common); for Global space they may come from anywhere in
// the grid.  Under a known launch the classifier enumerates thread
// identities exactly; otherwise a window/stride argument on the affine
// forms decides, and anything else degrades to MayConflict.  See
// docs/analysis.md for the soundness argument and its caveats.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/affine.h"

namespace cac::analysis {

enum class PairVerdict : std::uint8_t {
  Disjoint,        // no two distinct threads can touch common bytes
  MayConflict,     // analysis cannot decide (or overlap is synchronized)
  ProvablyRacing,  // overlap proven, a write involved, no barrier between
};

std::string to_string(PairVerdict v);

/// Classify the address footprints of two sites for distinct threads.
/// Pure footprint overlap — barrier ordering and guard gates are
/// applied by analyze_races on top of this.
PairVerdict classify_pair(const AccessSite& a, const AccessSite& b,
                          const LaunchEnv& env = {});

/// A ProvablyRacing same-space site pair (a.pc <= b.pc; a.pc == b.pc
/// is the self-pair: two distinct threads at one instruction).
struct SitePair {
  AccessSite a, b;
};

/// The static analogue of check::RaceReport.
struct RaceCandidateReport {
  /// The ProvablyRacing pairs only, ordered by a's site index, then
  /// b's (sites in pc order).
  std::vector<SitePair> pairs;

  [[nodiscard]] std::vector<SitePair> racing() const { return pairs; }
  [[nodiscard]] bool any_racing() const { return !pairs.empty(); }
};

/// Classify the same-space pairs of Shared/Global sites in `prg` and
/// keep the ProvablyRacing ones.  A ProvablyRacing verdict
/// additionally requires, beyond footprint overlap with a non-atomic
/// write:
///  * a bar-free control-flow path between the two sites (in either
///    direction; trivial for the self-pair), and
///  * both sites post-dominating entry (every thread executes them),
///    so the conflicting threads are known to reach the sites.
/// With an unknown launch the report assumes at least two threads in
/// scope; pairs failing a gate are MayConflict and left out.
RaceCandidateReport analyze_races(const ptx::Program& prg,
                                  const LaunchEnv& env = {});

/// The same report from an analysis already made (lint_kernel).
RaceCandidateReport analyze_races(const ptx::Program& prg,
                                  const KernelAnalysis& ka);

/// Pcs of Shared/Global access instructions proven independent of every
/// same-space site in the program (including their own self-pair):
/// each pair is Disjoint, or both sites are non-atomic reads.  A step
/// of such an instruction commutes with every step any other warp can
/// take, so the explorer may commit it without branching the schedule
/// (sched::ExploreOptions::por_independent_pcs).  Sorted ascending.
std::vector<std::uint32_t> independent_access_pcs(const ptx::Program& prg,
                                                  const LaunchEnv& env = {});

}  // namespace cac::analysis
