#include "sched/explore.h"

#include <gtest/gtest.h>

#include "programs/corpus.h"
#include "ptx/lower.h"
#include "sem/launch.h"

namespace cac::sched {
namespace {

using namespace cac::ptx;

sem::Machine plain_machine(const Program& prg, const sem::KernelConfig& kc,
                           mem::MemSizes sizes = {}) {
  return sem::Launch(prg, kc, sizes).machine();
}

TEST(Explore, SingleWarpHasLinearScheduleGraph) {
  const Program prg = programs::straightline_program(3);
  const sem::KernelConfig kc{{1, 1, 1}, {2, 1, 1}, 2};
  const ExploreResult r = explore(prg, kc, plain_machine(prg, kc));
  EXPECT_TRUE(r.exhaustive);
  EXPECT_TRUE(r.all_schedules_terminate());
  EXPECT_TRUE(r.schedule_independent());
  // 5 executable instructions -> 6 states in a chain.
  EXPECT_EQ(r.states_visited, 6u);
  EXPECT_EQ(r.transitions, 5u);
  EXPECT_EQ(r.min_steps_to_termination, 5u);
  EXPECT_EQ(r.max_steps_to_termination, 5u);
}

TEST(Explore, TwoWarpInterleavingsConverge) {
  // Two independent warps of a straight-line program: every
  // interleaving leads to the same final state (a diamond lattice).
  const Program prg = programs::straightline_program(2);
  const sem::KernelConfig kc{{1, 1, 1}, {4, 1, 1}, 2};  // 2 warps
  const ExploreResult r = explore(prg, kc, plain_machine(prg, kc));
  EXPECT_TRUE(r.exhaustive);
  EXPECT_TRUE(r.schedule_independent());
  // Each warp takes 4 steps; the interleaving lattice has 5*5 = 25
  // states and every path has length 8.
  EXPECT_EQ(r.states_visited, 25u);
  EXPECT_EQ(r.min_steps_to_termination, 8u);
  EXPECT_EQ(r.max_steps_to_termination, 8u);
}

TEST(Explore, CycleIsReportedAsViolation) {
  const Program prg("spin", {IBra{0}});
  const sem::KernelConfig kc{{1, 1, 1}, {2, 1, 1}, 2};
  const ExploreResult r = explore(prg, kc, plain_machine(prg, kc));
  ASSERT_FALSE(r.violations.empty());
  EXPECT_EQ(r.violations[0].kind, Violation::Kind::Cycle);
}

TEST(Explore, StuckStateIsReportedWithTrace) {
  const Program& prg = load_ptx(programs::barrier_divergence_ptx())
                           .kernel("barrier_divergence");
  const sem::KernelConfig kc{{1, 1, 1}, {4, 1, 1}, 4};
  const ExploreResult r = explore(prg, kc, plain_machine(prg, kc));
  ASSERT_FALSE(r.violations.empty());
  EXPECT_EQ(r.violations[0].kind, Violation::Kind::Stuck);
  EXPECT_FALSE(r.violations[0].trace.empty());
  EXPECT_FALSE(r.all_schedules_terminate());
}

TEST(Explore, FaultIsReportedWithTrace) {
  const Reg r1{TypeClass::UI, 32, 1};
  const Program prg("oob",
                    {ILd{Space::Global, UI(32), r1, op_imm(1000)}, IExit{}});
  const sem::KernelConfig kc{{1, 1, 1}, {2, 1, 1}, 2};
  const ExploreResult r =
      explore(prg, kc, plain_machine(prg, kc, mem::MemSizes{16, 0, 0, 0, 1}));
  ASSERT_FALSE(r.violations.empty());
  EXPECT_EQ(r.violations[0].kind, Violation::Kind::Fault);
  EXPECT_EQ(r.violations[0].trace.size(), 1u);
}

TEST(Explore, DepthBoundYieldsNonExhaustive) {
  const Program prg = programs::straightline_program(50);
  const sem::KernelConfig kc{{1, 1, 1}, {2, 1, 1}, 2};
  ExploreOptions opts;
  opts.max_depth = 5;
  const ExploreResult r = explore(prg, kc, plain_machine(prg, kc), opts);
  EXPECT_FALSE(r.exhaustive);
  ASSERT_FALSE(r.violations.empty());
  EXPECT_EQ(r.violations[0].kind, Violation::Kind::DepthExceeded);
}

TEST(Explore, StateLimitYieldsNonExhaustive) {
  const Program prg = programs::straightline_program(10);
  const sem::KernelConfig kc{{2, 1, 1}, {4, 1, 1}, 2};
  ExploreOptions opts;
  opts.max_states = 10;
  opts.stop_at_first_violation = false;
  const ExploreResult r = explore(prg, kc, plain_machine(prg, kc), opts);
  EXPECT_FALSE(r.exhaustive);
  EXPECT_LE(r.states_visited, 10u);
}

TEST(Explore, BarrierSerializesSchedules) {
  // Two warps meeting at a barrier: all schedules funnel through the
  // single lift-bar state and agree afterwards.
  const Reg r1{TypeClass::UI, 32, 1};
  const Program prg("bar", {IMov{r1, op_sreg(SregKind::Tid, Dim::X)},
                            IBar{}, INop{}, IExit{}});
  const sem::KernelConfig kc{{1, 1, 1}, {4, 1, 1}, 2};
  mem::MemSizes s;
  s.shared = 8;
  const ExploreResult r = explore(prg, kc, plain_machine(prg, kc, s));
  EXPECT_TRUE(r.exhaustive);
  EXPECT_TRUE(r.schedule_independent());
  EXPECT_EQ(r.min_steps_to_termination, r.max_steps_to_termination);
  EXPECT_EQ(r.min_steps_to_termination, 5u);  // 2 movs + lift + 2 nops
}

TEST(Explore, RacyProgramHasMultipleFinals) {
  // Warp 0 and warp 1 both store to Global[0] (different values) in
  // separate instructions: the outcome depends on the schedule.
  const Reg r1{TypeClass::UI, 32, 1};
  const Program prg("race",
                    {IMov{r1, op_sreg(SregKind::CtaId, Dim::X)},
                     ISt{Space::Global, UI(32), op_imm(0), r1}, IExit{}});
  const sem::KernelConfig kc{{2, 1, 1}, {1, 1, 1}, 1};  // 2 blocks
  const ExploreResult r =
      explore(prg, kc, plain_machine(prg, kc, mem::MemSizes{8, 0, 0, 0, 1}));
  EXPECT_TRUE(r.exhaustive);
  EXPECT_TRUE(r.all_schedules_terminate());
  EXPECT_FALSE(r.schedule_independent());
  EXPECT_EQ(r.final_ids.size(), 2u);
}

// --- limit-case pins --------------------------------------------------
//
// What the explorer reports when a structural limit cuts the run short.
// Violations are pinned as "kind/trace-length" in report order.

struct LimitCase {
  const char* name;
  Program prg;
  sem::KernelConfig kc;
  ExploreOptions opts;
};

LimitCase limit_case(const std::string& name) {
  ExploreOptions opts;
  opts.stop_at_first_violation = false;
  if (name == "max_states=10" || name == "max_states=100") {
    opts.max_states = name == "max_states=10" ? 10 : 100;
    return {"max_states", programs::straightline_program(10),
            {{2, 1, 1}, {4, 1, 1}, 2}, opts};
  }
  opts.max_depth = name == "max_depth=5" ? 5 : 2;
  if (name == "max_depth=5") {
    return {"max_depth", programs::straightline_program(50),
            {{1, 1, 1}, {4, 1, 1}, 2}, opts};
  }
  return {"spin", Program("spin", {INop{}, IBra{0}}),
          {{1, 1, 1}, {4, 1, 1}, 2}, opts};
}

std::string violation_summary(const ExploreResult& r) {
  std::string s;
  for (const Violation& v : r.violations) {
    if (!s.empty()) s += ' ';
    s += to_string(v.kind) + "/" + std::to_string(v.trace.size());
  }
  return s;
}

struct LimitPin {
  const char* cut;
  std::uint64_t states;
  std::uint64_t transitions;
  ExploreResult::Limit limit;
  bool exhaustive;
  std::size_t finals;
  const char* violations;
};

TEST(Explore, LimitCasesPinnedPerEngine) {
  using L = ExploreResult::Limit;
  const char* const depth5 =
      "depth-exceeded/5 depth-exceeded/5 depth-exceeded/5 "
      "depth-exceeded/5 depth-exceeded/5 depth-exceeded/5";
  const char* const spin = "cycle/2 depth-exceeded/2 cycle/2";
  const LimitPin pins[] = {
      {"max_states=10", 10, 40, L::MaxStates, false, 0, ""},
      {"max_states=100", 100, 218, L::MaxStates, false, 1, ""},
      {"max_depth=5", 21, 30, L::MaxDepth, false, 0, depth5},
      {"spin", 4, 6, L::MaxDepth, false, 0, spin},
  };
  for (const LimitPin& pin : pins) {
    SCOPED_TRACE(pin.cut);
    const LimitCase c = limit_case(pin.cut);
    const ExploreResult r =
        explore(c.prg, c.kc, plain_machine(c.prg, c.kc), c.opts);
    EXPECT_EQ(r.states_visited, pin.states);
    EXPECT_EQ(r.transitions, pin.transitions);
    EXPECT_EQ(to_string(r.limit_hit), to_string(pin.limit));
    EXPECT_EQ(r.exhaustive, pin.exhaustive);
    EXPECT_EQ(r.final_ids.size(), pin.finals);
    EXPECT_EQ(violation_summary(r), pin.violations);
  }
}

// --- state identity pins ----------------------------------------------
//
// Exact (states, transitions, finals) for the corpus kernels the
// explore benchmark runs, at small launches, with and without POR.  A
// warp-state representation that merges states the semantics keeps
// apart (a predicate written false vs. never written, a register
// written 0 vs. never written) or splits equal ones moves them.

struct IdentityPin {
  const char* kernel;
  bool por;
  std::uint64_t states;
  std::uint64_t transitions;
  std::size_t finals;
};

sem::LaunchSpec pin_launch(const std::string& kernel) {
  sem::LaunchSpec s;
  s.global_bytes = 256;
  s.shared_bytes = 64;
  s.block = {4, 1, 1};
  s.warp_size = 2;
  const auto fill = [&](std::uint64_t base, std::uint32_t n,
                        std::uint32_t mul) {
    for (std::uint32_t i = 0; i < n; ++i) {
      s.inits.emplace_back(base + 4 * i, mul * i + 1);
    }
  };
  if (kernel == "add_vector" || kernel == "xor_cipher") {
    s.block = {6, 1, 1};
    s.warp_size = 3;
    s.params = {{"arr_A", 0}, {"arr_B", 64}, {"arr_C", 128}, {"size", 5}};
    fill(0, 5, 3);
    fill(64, 5, 7);
  } else if (kernel == "saxpy") {
    s.block = {6, 1, 1};
    s.warp_size = 3;
    s.params = {{"arr_X", 0}, {"arr_Y", 64}, {"a", 3}, {"size", 5}};
    fill(0, 5, 3);
    fill(64, 5, 7);
  } else if (kernel == "reduce" || kernel == "scan_prefix") {
    s.params = {{"arr_A", 0}, {"out", 128}};
    fill(0, 4, 5);
  } else if (kernel == "atomic_sum") {
    s.grid = {2, 1, 1};
    s.block = {2, 1, 1};
    s.params = {{"arr_A", 0}, {"out", 128}, {"size", 4}};
    fill(0, 4, 5);
    s.inits.emplace_back(128, 0);
  } else {  // histogram
    s.params = {{"data", 0}, {"hist", 128}, {"size", 4}, {"mask", 3}};
    fill(0, 4, 0x01010101);
    for (std::uint32_t b = 0; b < 4; ++b) s.inits.emplace_back(128 + 4 * b, 0);
  }
  return s;
}

std::string pin_source(const std::string& kernel) {
  if (kernel == "add_vector") return programs::vector_add_ptx();
  if (kernel == "xor_cipher") return programs::xor_cipher_ptx();
  if (kernel == "saxpy") return programs::saxpy_ptx();
  if (kernel == "reduce") return programs::reduce_shared_ptx();
  if (kernel == "scan_prefix") return programs::scan_prefix_ptx();
  if (kernel == "atomic_sum") return programs::atomic_sum_ptx();
  return programs::histogram_ptx();
}

TEST(Explore, StateIdentityPinnedOnCorpusKernels) {
  const IdentityPin pins[] = {
      {"add_vector", false, 529, 1012, 1},  {"add_vector", true, 304, 352, 1},
      {"xor_cipher", false, 400, 760, 1},   {"xor_cipher", true, 256, 304, 1},
      {"saxpy", false, 361, 684, 1},        {"saxpy", true, 240, 288, 1},
      {"reduce", false, 427, 772, 1},       {"reduce", true, 132, 140, 1},
      {"scan_prefix", false, 462, 827, 1},  {"scan_prefix", true, 161, 175, 1},
      {"atomic_sum", false, 229, 424, 2},   {"atomic_sum", true, 145, 168, 2},
      {"histogram", false, 365, 688, 2},    {"histogram", true, 218, 252, 2},
  };
  for (const IdentityPin& pin : pins) {
    const Program prg = load_ptx(pin_source(pin.kernel)).kernel(pin.kernel);
    const sem::Launch launch = pin_launch(pin.kernel).to_launch(prg);
    SCOPED_TRACE(std::string(pin.kernel) + (pin.por ? " por" : ""));
    ExploreOptions opts;
    opts.partial_order_reduction = pin.por;
    const ExploreResult r =
        explore(prg, launch.config(), launch.machine(), opts);
    EXPECT_TRUE(r.exhaustive);
    EXPECT_TRUE(r.violations.empty());
    EXPECT_EQ(r.states_visited, pin.states);
    EXPECT_EQ(r.transitions, pin.transitions);
    EXPECT_EQ(r.final_ids.size(), pin.finals);
  }
}

}  // namespace
}  // namespace cac::sched
