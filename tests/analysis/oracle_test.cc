// The analysis-driven POR oracle (ExploreOptions::por_independent_pcs):
// verdicts with the oracle must be byte-identical to verdicts without
// it — serial and distributed — while visiting fewer
// states, and the oracle list must survive checkpoint round-trips and
// be policy-checked on resume.
#include <gtest/gtest.h>

#include <cstdio>
#include <set>
#include <vector>

#include "analysis/disjoint.h"
#include "common/finals.h"
#include "dist/coordinator.h"
#include "programs/corpus.h"
#include "ptx/lower.h"
#include "sched/checkpoint.h"
#include "sched/checkpoint_codec.h"
#include "sched/explore.h"
#include "sem/launch.h"
#include "support/binio.h"

namespace cac::analysis {
namespace {

using sched::ExploreOptions;
using sched::ExploreResult;

struct Outcome {
  bool exhaustive;
  std::size_t violation_kinds;  // bitmask of kinds seen
  std::set<std::uint64_t> final_memory_hashes;
  std::uint64_t states;
};

Outcome summarize(const ExploreResult& r) {
  Outcome o{r.exhaustive, 0, {}, r.states_visited};
  for (const sched::Violation& v : r.violations) {
    o.violation_kinds |= 1u << static_cast<unsigned>(v.kind);
  }
  for (const sem::Machine& m : finals_of(r)) {
    o.final_memory_hashes.insert(m.memory.hash());
  }
  return o;
}

void expect_same_verdict(const Outcome& a, const Outcome& b) {
  EXPECT_EQ(a.exhaustive, b.exhaustive);
  EXPECT_EQ(a.violation_kinds, b.violation_kinds);
  EXPECT_EQ(a.final_memory_hashes, b.final_memory_hashes);
}

/// The por_test vecadd scenario: one block, two warps of four.
struct VecAddScenario {
  ptx::Program prg =
      ptx::load_ptx(programs::vector_add_ptx()).kernel("add_vector");
  sem::KernelConfig kc{{1, 1, 1}, {8, 1, 1}, 4};
  sem::Machine init;
  LaunchEnv env;

  VecAddScenario() : init(make_init()) {
    env.known = true;
    env.ntid[0] = 8;
    const programs::VecAddLayout L;
    for (const ptx::ParamSlot& slot : prg.params()) {
      if (slot.name == "arr_A") env.params[slot.offset] = L.a;
      if (slot.name == "arr_B") env.params[slot.offset] = L.b;
      if (slot.name == "arr_C") env.params[slot.offset] = L.c;
      if (slot.name == "size") env.params[slot.offset] = 8;
    }
  }

  sem::Machine make_init() const {
    const programs::VecAddLayout L;
    sem::Launch launch(prg, kc, mem::MemSizes{L.global_bytes, 0, 0, 0, 1});
    launch.param("arr_A", L.a).param("arr_B", L.b).param("arr_C", L.c)
        .param("size", 8);
    for (std::uint32_t i = 0; i < 8; ++i) {
      launch.global_u32(L.a + 4 * i, i);
      launch.global_u32(L.b + 4 * i, i);
    }
    return launch.machine();
  }
};

ExploreOptions por_opts() {
  ExploreOptions o;
  o.stop_at_first_violation = false;
  o.partial_order_reduction = true;
  return o;
}

TEST(PorOracle, SerialVerdictIdenticalStatesFewer) {
  const VecAddScenario s;
  const std::vector<std::uint32_t> pcs =
      independent_access_pcs(s.prg, s.env);
  ASSERT_FALSE(pcs.empty());

  ExploreOptions por = por_opts();
  ExploreOptions oracle = por;
  oracle.por_independent_pcs = pcs;

  const Outcome a = summarize(sched::explore(s.prg, s.kc, s.init, por));
  const Outcome b = summarize(sched::explore(s.prg, s.kc, s.init, oracle));
  expect_same_verdict(a, b);
  // The oracle proves the ld/ld/st sites independent, so the explorer
  // stops branching at them: strictly fewer states than plain POR.
  EXPECT_LT(b.states, a.states);
}

TEST(PorOracle, SaxpyAlsoShrinks) {
  const ptx::Program prg =
      ptx::load_ptx(programs::saxpy_ptx()).kernel("saxpy");
  const sem::KernelConfig kc{{1, 1, 1}, {8, 1, 1}, 4};
  sem::Launch launch(prg, kc, mem::MemSizes{0x400, 0, 0, 0, 1});
  launch.param("arr_X", 0x100).param("arr_Y", 0x200).param("a", 3)
      .param("size", 8);
  for (std::uint32_t i = 0; i < 8; ++i) {
    launch.global_u32(0x100 + 4 * i, i);
    launch.global_u32(0x200 + 4 * i, i);
  }
  LaunchEnv env;
  env.known = true;
  env.ntid[0] = 8;
  for (const ptx::ParamSlot& slot : prg.params()) {
    if (slot.name == "arr_X") env.params[slot.offset] = 0x100;
    if (slot.name == "arr_Y") env.params[slot.offset] = 0x200;
    if (slot.name == "size") env.params[slot.offset] = 8;
  }

  const std::vector<std::uint32_t> pcs = independent_access_pcs(prg, env);
  ASSERT_FALSE(pcs.empty());
  ExploreOptions por = por_opts();
  ExploreOptions oracle = por;
  oracle.por_independent_pcs = pcs;
  const sem::Machine init = launch.machine();
  const Outcome a = summarize(sched::explore(prg, kc, init, por));
  const Outcome b = summarize(sched::explore(prg, kc, init, oracle));
  expect_same_verdict(a, b);
  EXPECT_LT(b.states, a.states);
}

TEST(PorOracle, OracleNeverFlipsARacyVerdict) {
  // A program whose store self-pair is NOT independent: the oracle
  // (correctly empty) must leave both final states observable.
  const ptx::Program prg =
      ptx::load_ptx(programs::race_store_ptx()).kernel("race_store");
  // Two single-thread warps of one block: out[0] keeps the last
  // writer's tid, so the schedule is observable.
  const sem::KernelConfig kc{{1, 1, 1}, {2, 1, 1}, 1};
  sem::Launch launch(prg, kc, mem::MemSizes{64, 0, 0, 0, 1});
  launch.param("out", 0);
  LaunchEnv env;
  env.known = true;
  env.ntid[0] = 2;
  for (const ptx::ParamSlot& slot : prg.params()) {
    if (slot.name == "out") env.params[slot.offset] = 0;
  }
  const std::vector<std::uint32_t> pcs = independent_access_pcs(prg, env);

  ExploreOptions oracle = por_opts();
  oracle.por_independent_pcs = pcs;
  const sem::Machine init = launch.machine();
  const Outcome full =
      summarize(sched::explore(prg, kc, init, ExploreOptions{}));
  const Outcome reduced = summarize(sched::explore(prg, kc, init, oracle));
  expect_same_verdict(full, reduced);
  EXPECT_GT(full.final_memory_hashes.size(), 1u);
}

TEST(PorOracle, DistributedEngineMatches) {
  const VecAddScenario s;
  ExploreOptions oracle = por_opts();
  oracle.por_independent_pcs = independent_access_pcs(s.prg, s.env);
  const Outcome serial =
      summarize(sched::explore(s.prg, s.kc, s.init, oracle));
  dist::DistOptions dopts;
  dopts.n_workers = 2;
  const dist::DistResult d =
      dist::explore_distributed(s.prg, s.kc, s.init, oracle, dopts);
  const Outcome distributed = summarize(d.result);
  EXPECT_EQ(serial.exhaustive, distributed.exhaustive);
  EXPECT_EQ(serial.violation_kinds, distributed.violation_kinds);
  EXPECT_EQ(serial.final_memory_hashes, distributed.final_memory_hashes);
}

TEST(PorOracle, OptionsCodecRoundTripsTheOracleList) {
  ExploreOptions o = por_opts();
  o.por_independent_pcs = {2, 5, 11};
  support::BinWriter w;
  sched::codec::encode_options(w, o);
  support::BinReader r(w.buffer());
  const ExploreOptions d = sched::codec::decode_options(r);
  EXPECT_EQ(d.por_independent_pcs, o.por_independent_pcs);
  EXPECT_EQ(d.partial_order_reduction, o.partial_order_reduction);
}

TEST(PorOracle, ResumeRejectsAChangedOracle) {
  // A checkpoint written under one independence oracle must not be
  // resumable under another: the reduction is part of the verdict.
  const VecAddScenario s;
  const std::string path = testing::TempDir() + "cac_oracle_ck";
  ExploreOptions cut = por_opts();
  cut.por_independent_pcs = independent_access_pcs(s.prg, s.env);
  cut.stop_after_states = 8;
  cut.checkpoint_path = path;
  const ExploreResult partial = sched::explore(s.prg, s.kc, s.init, cut);
  ASSERT_FALSE(partial.exhaustive);

  const sched::Checkpoint ck = sched::Checkpoint::load(path);
  ExploreOptions resume = cut;
  resume.stop_after_states = 0;
  const ExploreResult done =
      sched::explore(s.prg, s.kc, s.init, resume, &ck);
  EXPECT_TRUE(done.exhaustive);

  ExploreOptions skewed = resume;
  skewed.por_independent_pcs.clear();
  EXPECT_THROW(sched::explore(s.prg, s.kc, s.init, skewed, &ck),
               sched::CheckpointError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace cac::analysis
