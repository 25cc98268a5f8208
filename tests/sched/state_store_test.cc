// sched::StateStore: interning/copy-on-write invariants behind the
// handle-based explorer API.
//
//  * intern() dedups structurally equal machines to one StateId;
//  * materialize() round-trips (structural equality and hash);
//  * materialized machines share memory banks with the store by
//    refcount, and copy-on-write isolates mutations;
//  * dedup survives forced hash collisions (equality, not hash,
//    decides) — the soundness property the explorers lean on.
#include "sched/state_store.h"

#include <gtest/gtest.h>

#include "programs/corpus.h"
#include "sem/launch.h"
#include "sem/step.h"

namespace cac::sched {
namespace {

using programs::VecAddLayout;

sem::Machine vecadd_initial(const sem::KernelConfig& kc,
                            std::uint32_t size) {
  static const ptx::Program prg = programs::vector_add_listing2();
  const VecAddLayout L;
  sem::LaunchSpec spec;
  spec.grid = kc.grid;
  spec.block = kc.block;
  spec.warp_size = kc.warp_size;
  spec.global_bytes = L.global_bytes;
  spec.shared_bytes = 0;
  spec.params = {{"arr_A", L.a}, {"arr_B", L.b}, {"arr_C", L.c},
                 {"size", size}};
  for (std::uint32_t i = 0; i < size; ++i) {
    spec.inits.emplace_back(L.a + 4 * i, i);
    spec.inits.emplace_back(L.b + 4 * i, 2 * i);
  }
  return spec.to_launch(prg).machine();
}

const ptx::Program& vecadd_prg() {
  static const ptx::Program prg = programs::vector_add_listing2();
  return prg;
}

/// Step the machine once along the first eligible choice.
sem::Machine step_once(const sem::KernelConfig& kc, sem::Machine m) {
  const auto eligible = sem::eligible_choices(vecadd_prg(), m.grid);
  EXPECT_FALSE(eligible.empty());
  const sem::StepResult sr =
      sem::apply_choice(vecadd_prg(), kc, m, eligible.front(), {}, nullptr);
  EXPECT_TRUE(sr.ok()) << sr.fault;
  return m;
}

TEST(StateStoreTest, InternDedupsEqualMachines) {
  const sem::KernelConfig kc{{1, 1, 1}, {8, 1, 1}, 4};
  const sem::Machine m = vecadd_initial(kc, 8);
  const sem::Machine copy = m;  // structurally equal, distinct banks refs

  StateStore store;
  const auto a = store.intern(m);
  ASSERT_TRUE(a.id.valid());
  EXPECT_TRUE(a.inserted);

  const auto b = store.intern(copy);
  EXPECT_FALSE(b.inserted);
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.stats().states, 1u);
}

TEST(StateStoreTest, MaterializeRoundTrips) {
  const sem::KernelConfig kc{{1, 1, 1}, {8, 1, 1}, 4};
  sem::Machine m = vecadd_initial(kc, 8);
  m = step_once(kc, std::move(m));
  m = step_once(kc, std::move(m));

  StateStore store;
  const auto r = store.intern(m);
  ASSERT_TRUE(r.id.valid());

  const sem::Machine back = store.materialize(r.id);
  EXPECT_TRUE(back == m);
  EXPECT_EQ(back.hash(), m.hash());
  EXPECT_EQ(store.machine_hash(r.id), m.hash());

  // And the round-tripped machine interns to the same handle.
  const auto again = store.intern(back);
  EXPECT_FALSE(again.inserted);
  EXPECT_EQ(again.id, r.id);
}

TEST(StateStoreTest, MaterializedMachineSharesBanksCopyOnWrite) {
  const sem::KernelConfig kc{{1, 1, 1}, {8, 1, 1}, 4};
  const sem::Machine m = vecadd_initial(kc, 8);

  StateStore store;
  const auto r = store.intern(m);
  ASSERT_TRUE(r.id.valid());

  sem::Machine a = store.materialize(r.id);
  const sem::Machine b = store.materialize(r.id);
  // Banks are shared by refcount, not copied per materialization.
  EXPECT_EQ(a.memory.bank_ref(mem::Space::Global).get(),
            b.memory.bank_ref(mem::Space::Global).get());
  EXPECT_EQ(a.memory.bank_ref(mem::Space::Param).get(),
            b.memory.bank_ref(mem::Space::Param).get());

  // Mutating one copy clones only its bank; the sibling and the store
  // keep the original bytes.
  const std::uint64_t before =
      b.memory.load(mem::Space::Global, 0, 4);
  a.memory.store(mem::Space::Global, 0, 4, 0xdeadbeef, true);
  a.invalidate_hash();
  EXPECT_NE(a.memory.bank_ref(mem::Space::Global).get(),
            b.memory.bank_ref(mem::Space::Global).get());
  EXPECT_EQ(b.memory.load(mem::Space::Global, 0, 4), before);
  const sem::Machine c = store.materialize(r.id);
  EXPECT_EQ(c.memory.load(mem::Space::Global, 0, 4), before);
}

TEST(StateStoreTest, RegisterLocalStepSharesAllButOneWarp) {
  const sem::KernelConfig kc{{1, 1, 1}, {8, 1, 1}, 4};  // two warps
  const sem::Machine m0 = vecadd_initial(kc, 8);
  const sem::Machine m1 = step_once(kc, m0);

  StateStore store;
  ASSERT_TRUE(store.intern(m0).inserted);
  const auto s0 = store.stats();
  ASSERT_TRUE(store.intern(m1).inserted);
  const auto s1 = store.stats();

  // The first instruction is register-local: one warp changed, the
  // untouched warp and every memory bank are shared with state 0.
  EXPECT_EQ(s1.states, 2u);
  EXPECT_LE(s1.warp_fragments, s0.warp_fragments + 1);
  EXPECT_EQ(s1.bank_fragments, s0.bank_fragments);
  // The incremental resident cost is far below a full machine copy.
  EXPECT_LT(s1.resident_bytes - s0.resident_bytes,
            (s1.materialized_bytes - s0.materialized_bytes) / 2);
}

TEST(StateStoreTest, ForcedHashCollisionsStillDedupByEquality) {
  // hash_mask 0 sends every fragment and state into one bucket: any
  // dedup decision now rests purely on structural equality.
  StoreOptions o;
  o.hash_mask = 0;
  StateStore store(o);

  const sem::KernelConfig kc{{1, 1, 1}, {8, 1, 1}, 4};
  std::vector<sem::Machine> chain;
  chain.push_back(vecadd_initial(kc, 8));
  for (int i = 0; i < 4; ++i) {
    chain.push_back(step_once(kc, chain.back()));
  }

  std::vector<StateId> ids;
  for (const sem::Machine& m : chain) {
    const auto r = store.intern(m);
    ASSERT_TRUE(r.id.valid());
    EXPECT_TRUE(r.inserted);
    ids.push_back(r.id);
  }
  // All distinct states got distinct ids despite total collision...
  for (std::size_t i = 0; i < ids.size(); ++i) {
    for (std::size_t j = i + 1; j < ids.size(); ++j) {
      EXPECT_FALSE(ids[i] == ids[j]) << i << " vs " << j;
    }
  }
  // ...re-interning dedups to the existing ids...
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const auto r = store.intern(chain[i]);
    EXPECT_FALSE(r.inserted);
    EXPECT_EQ(r.id, ids[i]);
  }
  // ...and every handle still materializes its own state.
  for (std::size_t i = 0; i < chain.size(); ++i) {
    EXPECT_TRUE(store.materialize(ids[i]) == chain[i]) << i;
  }
}

TEST(StateStoreTest, MaxStatesCapDropsNewKeepsExisting) {
  const sem::KernelConfig kc{{1, 1, 1}, {8, 1, 1}, 4};
  const sem::Machine m0 = vecadd_initial(kc, 8);
  const sem::Machine m1 = step_once(kc, m0);

  StateStore store;
  const auto a = store.intern(m0, 1);
  ASSERT_TRUE(a.id.valid());
  EXPECT_TRUE(a.inserted);

  // A new state over the cap is dropped...
  const auto b = store.intern(m1, 1);
  EXPECT_FALSE(b.id.valid());
  EXPECT_FALSE(b.inserted);
  EXPECT_EQ(store.size(), 1u);

  // ...but an existing state is still found (existence before cap).
  const auto c = store.intern(m0, 1);
  EXPECT_TRUE(c.id.valid());
  EXPECT_FALSE(c.inserted);
  EXPECT_EQ(c.id, a.id);
}

}  // namespace
}  // namespace cac::sched
