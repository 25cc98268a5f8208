// Differential testing: the concrete semantics kernel (sem/step.cc)
// against the symbolic interpreter (sym/exec.cc), through the full
// front-end round trip.
//
// Pipeline per seed:
//   random program -> emit_ptx -> parse/lower (divergence analysis +
//   Sync insertion) -> (a) concrete run, (b) per-thread symbolic
//   execution + term evaluation under the concrete inputs.
// The two interpreters were written independently; agreement on every
// register of every thread over randomized programs (ALU ops of all
// kinds, sign/width conversions, symbolic loads feeding branch
// predicates) is strong evidence both implement the same semantics —
// the executable analogue of proving the Ltac interpreter sound
// against the operational rules.
#include <gtest/gtest.h>

#include <map>

#include "common/random_program.h"
#include "ptx/emit.h"
#include "ptx/lower.h"
#include "sched/scheduler.h"
#include "sem/launch.h"
#include "sym/exec.h"

namespace cac {
namespace {

using namespace cac::ptx;
using testing::RandomProgramOptions;
using testing::Rng;

class DifferentialTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DifferentialTest, ConcreteAndSymbolicAgree) {
  Rng rng(GetParam());
  RandomProgramOptions gen;
  gen.n_instrs = 12 + rng.below(20);
  const Program raw = testing::random_program(rng, gen);

  // Round trip through the text front end (fuzzes emitter+parser too).
  const Program prg = load_ptx(emit_ptx(raw)).kernel("fuzz");
  ASSERT_TRUE(validate(prg).empty());

  // Concrete run: one warp of 4 threads, randomized initial Global.
  const sem::KernelConfig kc{{1, 1, 1}, {4, 1, 1}, 4};
  sem::Launch launch(prg, kc, mem::MemSizes{64, 0, 0, 0, 1});
  std::uint8_t init[64];
  for (auto& b : init) b = static_cast<std::uint8_t>(rng.next());
  launch.memory().write_init(mem::Space::Global, 0, init, sizeof init);
  sem::Machine m = launch.machine();
  sched::FirstChoiceScheduler s;
  const sched::RunResult run = sched::run(prg, kc, m, s, 10000);
  ASSERT_TRUE(run.terminated()) << run.message << "\n" << to_string(prg);

  struct FinalThread {
    std::uint32_t tid;
    const sem::Warp* warp;
    std::uint32_t lane;
  };
  std::vector<FinalThread> finals;
  for (const sem::Block& b : m.grid.blocks) {
    for (const sem::WarpRef& ref : b.warps) {
      const sem::Warp& w = *ref;
      for (const std::uint32_t l : w.tree().lanes()) {
        finals.push_back({w.tid(l), &w, l});
      }
    }
  }
  ASSERT_EQ(finals.size(), 4u);

  // Symbolic execution per thread + evaluation under the concrete
  // initial memory.
  sym::TermArena arena;
  const sym::SymEnv env = sym::SymEnv::symbolic(arena, prg);
  for (const FinalThread& t : finals) {
    const sym::ThreadSummary summary =
        sym_execute_thread(prg, kc, t.tid, env);
    ASSERT_TRUE(summary.all_ok()) << "tid " << t.tid;

    // Bind every memory-input variable to the concrete bytes.
    std::unordered_map<std::string, std::uint64_t> assignment;
    for (std::size_t i = 0; i < arena.size(); ++i) {
      const sym::TermNode& n = arena.node(static_cast<sym::TermRef>(i));
      if (n.op != sym::Op::Var) continue;
      const std::string& name = arena.var_name(static_cast<sym::TermRef>(i));
      const auto lb = name.find('[');
      if (lb == std::string::npos) continue;
      const std::uint64_t off = std::stoull(name.substr(lb + 1));
      std::uint64_t v = 0;
      for (unsigned byte = 0; byte < n.width / 8; ++byte) {
        v |= static_cast<std::uint64_t>(init[off + byte]) << (8 * byte);
      }
      assignment[name] = v;
    }

    // Exactly one path condition must evaluate to true.
    const sym::SymPath* live = nullptr;
    for (const sym::SymPath& p : summary.paths) {
      if (arena.evaluate(p.cond, assignment) == 1) {
        ASSERT_EQ(live, nullptr) << "two live paths for tid " << t.tid;
        live = &p;
      }
    }
    ASSERT_NE(live, nullptr) << "no live path for tid " << t.tid;

    // Every register agrees.
    std::map<std::uint32_t, std::uint64_t> sym_regs;
    for (const auto& [key, term] : live->regs.rho) {
      sym_regs[key] = arena.evaluate(term, assignment);
    }
    for (const auto& [key, value] : sym_regs) {
      const auto cls = static_cast<TypeClass>(key >> 24);
      const Reg reg{cls, static_cast<std::uint8_t>((key >> 16) & 0xff),
                    static_cast<std::uint16_t>(key & 0xffff)};
      EXPECT_EQ(t.warp->read(t.lane, reg), value)
          << "tid " << t.tid << " reg " << to_string(reg) << "\n"
          << to_string(prg);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest,
                         ::testing::Range<std::uint64_t>(1, 41));

}  // namespace
}  // namespace cac
