// Static performance lint over the affine domain (docs/analysis.md):
// the passes that grow `cacval lint` from a correctness tool into a
// kernel-quality gate.  Three pass families, all priced by
// analysis/costmodel.h:
//
//  * UncoalescedGlobal — a Global access site whose per-lane addresses
//    spread a warp across more 128-byte segments than the ideal
//    (stride ≠ 1 element across consecutive tid.x).  The reported
//    transactions-per-warp is exact when the affine form is known;
//    sites the model cannot evaluate are silently skipped (`unknown`
//    is never a false positive).
//  * SharedBankConflict — a Shared site whose word stride maps several
//    distinct words of one phase onto the same bank (stride mod 32
//    over the 32-bank model): the classic column-major and
//    power-of-two-pitch patterns, with broadcasts exempt.
//  * DivergentRegion — a tid-dependent guard whose divergent region
//    (branch to ipostdom join) re-executes per-lane: flagged when the
//    predicate provably oscillates within a warp (a modulo component
//    over tid.x, e.g. `tid % 2`) or is beyond the affine domain
//    (may-report).  Affine predicates are monotone across the warp —
//    at most one transition, the benign boundary-guard idiom — and
//    stay quiet.  Findings are ranked by the instruction count of the
//    region, with its global-load count flagged.
//
// All findings are warnings: performance never affects correctness
// exit codes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/affine.h"
#include "support/diag.h"

namespace cac::analysis {

enum class PerfKind : std::uint8_t {
  UncoalescedGlobal,
  SharedBankConflict,
  DivergentRegion,
};

std::string to_string(PerfKind k);

struct PerfFinding {
  PerfKind kind = PerfKind::UncoalescedGlobal;
  std::uint32_t pc = 0;   // the access site / the branch
  SourceLoc loc;          // {0,0} when the program has no source
  std::string message;
  /// Cost, by kind (unused fields stay 0):
  unsigned transactions_per_warp = 0;  // UncoalescedGlobal
  unsigned ideal_transactions = 0;     // UncoalescedGlobal
  unsigned conflict_degree = 0;        // SharedBankConflict
  unsigned divergent_insns = 0;        // DivergentRegion
  unsigned global_loads = 0;           // DivergentRegion
};

struct PerfReport {
  /// Memory findings in pc order, then divergence hotspots ranked by
  /// region size (largest first).
  std::vector<PerfFinding> findings;

  [[nodiscard]] bool clean() const { return findings.empty(); }
};

/// Run the perf passes over one kernel.  `locs` maps pc -> source
/// position (LoweredModule::locs_for; an empty vector is accepted).
PerfReport analyze_perf(const ptx::Program& prg,
                        const std::vector<SourceLoc>& locs,
                        const LaunchEnv& env = {});

/// The same passes over an analysis already made (lint_kernel).
PerfReport analyze_perf(const ptx::Program& prg,
                        const std::vector<SourceLoc>& locs,
                        const KernelAnalysis& ka);

}  // namespace cac::analysis
