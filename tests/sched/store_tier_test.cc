// The tiered StateStore: spill/rematerialize transparency, delta
// chains, dedup against demoted fragments.
//
// The contract under test (docs/explorer.md "Tiered storage"):
//
//  * evicting fragments — to the warm encoded tier or to the on-disk
//    spill segment — never changes what materialize() returns, what
//    machine_hash() reports, or which machines dedup to which ids;
//  * delta chains stay bounded, and chaining never costs resident
//    bytes;
//  * with every hash colliding (hash_mask 0) and every fragment
//    demoted, dedup still rests on structural equality alone — the
//    byte comparison of demoted candidates;
//  * configure() on a live store (the resume path) applies new tier
//    knobs without disturbing stored states.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "common/finals.h"
#include "programs/corpus.h"
#include "sched/explore.h"
#include "sched/state_store.h"
#include "sem/launch.h"
#include "sem/step.h"
#include "support/binio.h"

namespace cac::sched {
namespace {

/// The dense interleaving lattice from the checkpoint suite: plenty of
/// distinct states reachable by stepping, no violations.
struct Lattice {
  ptx::Program prg;
  sem::KernelConfig kc;
  sem::Machine init;

  explicit Lattice(std::uint32_t instrs, std::uint32_t threads = 8)
      : prg(programs::straightline_program(instrs)),
        kc{{1, 1, 1}, {threads, 1, 1}, 2},
        init(sem::Launch(prg, kc, mem::MemSizes{}).machine()) {}
};

/// Walk a pseudo-random schedule from `init`, collecting each machine
/// along the way.  The walk shape (long runs of single-warp steps)
/// produces exactly the parent-chained inserts the delta tier is
/// built for.
std::vector<sem::Machine> random_walk(const ptx::Program& prg,
                                      const sem::KernelConfig& kc,
                                      const sem::Machine& init,
                                      std::uint64_t seed,
                                      std::size_t steps) {
  std::mt19937_64 rng(seed);
  std::vector<sem::Machine> out;
  sem::Machine m = init;
  out.push_back(m);
  for (std::size_t i = 0; i < steps; ++i) {
    const auto eligible = sem::eligible_choices(prg, m.grid);
    if (eligible.empty()) break;
    std::uniform_int_distribution<std::size_t> pick(0, eligible.size() - 1);
    const sem::StepResult sr =
        sem::apply_choice(prg, kc, m, eligible[pick(rng)], {}, nullptr);
    EXPECT_TRUE(sr.ok()) << sr.fault;
    out.push_back(m);
  }
  return out;
}

std::vector<sem::Machine> random_walk(const Lattice& w, std::uint64_t seed,
                                      std::size_t steps) {
  return random_walk(w.prg, w.kc, w.init, seed, steps);
}

/// A vecadd machine: warps with real register files, so fragment
/// encodings are large enough that delta encoding pays (the lattice's
/// two-register warps fall under the break-even slack).
struct VecAdd {
  ptx::Program prg;
  sem::KernelConfig kc;
  sem::Machine init;

  explicit VecAdd(std::uint32_t threads = 8, std::uint32_t warp = 4,
                  std::uint32_t size = 8)
      : prg(programs::vector_add_listing2()), kc{{1, 1, 1}, {threads, 1, 1},
                                                 warp} {
    const programs::VecAddLayout L;
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
    init = spec.to_launch(prg).machine();
  }
};

// ---------------------------------------------------------------------
// Spill/rematerialize transparency

TEST(StoreTier, RandomizedSpillRematerializePreservesEverything) {
  const Lattice w(6, 6);

  for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
    const std::vector<sem::Machine> walk = random_walk(w, seed, 120);

    // Reference store: everything hot (budget 0 disables eviction).
    StateStore hot;
    // Tiered store: a budget small enough that insertion itself keeps
    // evicting, plus a spill segment so eviction reaches the cold tier.
    StoreOptions tiered;
    tiered.spill_dir = testing::TempDir();
    tiered.resident_budget_bytes = 16 << 10;
    StateStore cold(tiered);

    std::vector<StateId> hot_ids, cold_ids;
    StateId hp{}, cp{};
    for (const sem::Machine& m : walk) {
      const auto a = hot.intern(m, ~0ull, hp);
      const auto b = cold.intern(m, ~0ull, cp);
      ASSERT_TRUE(a.id.valid());
      ASSERT_TRUE(b.id.valid());
      // Chain parents the way the serial explorer does.
      hp = a.id;
      cp = b.id;
      EXPECT_EQ(a.inserted, b.inserted) << "seed " << seed;
      hot_ids.push_back(a.id);
      cold_ids.push_back(b.id);
    }
    EXPECT_EQ(hot.size(), cold.size());

    // Force a full demotion sweep, then check every state survives.
    cold.evict_all();
    EXPECT_GT(cold.stats().hot_evictions, 0u) << "seed " << seed;
    EXPECT_GT(cold.stats().spilled_bytes, 0u) << "seed " << seed;

    std::mt19937_64 order(seed ^ 0xabcdef);
    std::vector<std::size_t> idx(walk.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    std::shuffle(idx.begin(), idx.end(), order);
    for (const std::size_t i : idx) {
      EXPECT_EQ(cold.materialize(cold_ids[i]), walk[i]) << "seed " << seed;
      EXPECT_EQ(cold.machine_hash(cold_ids[i]),
                hot.machine_hash(hot_ids[i]))
          << "seed " << seed;
    }
    EXPECT_GT(cold.stats().rematerializations, 0u);

    // Re-interning every walked machine after the sweep must dedup —
    // the visited-set property the explorers lean on mid-spill.
    for (std::size_t i = 0; i < walk.size(); ++i) {
      const auto again = cold.intern(walk[i]);
      EXPECT_FALSE(again.inserted) << "seed " << seed << " i " << i;
      EXPECT_EQ(again.id, cold_ids[i]) << "seed " << seed << " i " << i;
    }
  }
}

TEST(StoreTier, WarmOnlyEvictionWorksWithoutSpillDir) {
  // No spill_dir: eviction stops at the warm tier but must still be
  // transparent.
  const Lattice w(5, 6);
  const std::vector<sem::Machine> walk = random_walk(w, 7, 80);

  StoreOptions o;
  o.resident_budget_bytes = 8 << 10;
  StateStore store(o);
  std::vector<StateId> ids;
  StateId parent{};
  for (const sem::Machine& m : walk) {
    const auto r = store.intern(m, ~0ull, parent);
    ASSERT_TRUE(r.id.valid());
    parent = r.id;
    ids.push_back(r.id);
  }
  store.evict_all();
  EXPECT_EQ(store.stats().spilled_bytes, 0u);
  for (std::size_t i = 0; i < walk.size(); ++i) {
    EXPECT_EQ(store.materialize(ids[i]), walk[i]) << i;
  }
}

// ---------------------------------------------------------------------
// Delta chains

TEST(StoreTier, DeltaChainDepthIsBounded) {
  const VecAdd w;
  // A long single-schedule walk maximizes parent chaining.
  const std::vector<sem::Machine> walk =
      random_walk(w.prg, w.kc, w.init, 11, 200);

  StateStore store;
  StateId parent{};
  std::vector<StateId> ids;
  for (const sem::Machine& m : walk) {
    const auto r = store.intern(m, ~0ull, parent);
    ASSERT_TRUE(r.id.valid());
    parent = r.id;
    ids.push_back(r.id);
  }
  // Deltas were used, and no chain outgrew the store's bound: decode
  // rejects a deeper chain, so a codec round trip checks every depth.
  EXPECT_GT(store.stats().delta_fragments, 0u);
  support::BinWriter bw;
  store.encode(bw);
  support::BinReader br(bw.buffer());
  StateStore copy;
  EXPECT_NO_THROW(copy.decode(br));
  // Every state still materializes exactly once every fragment is
  // demoted: that resolves each chain from its stored payloads, where a
  // broken base link would decode to the wrong machine.
  store.evict_all();
  for (std::size_t i = 0; i < walk.size(); ++i) {
    EXPECT_EQ(store.materialize(ids[i]), walk[i]) << i;
  }
}

TEST(StoreTier, DeeperChainsNeverCostMoreResidentBytes) {
  // The point of deltas: chained fragments shrink the resident
  // footprint on step-shaped insert sequences.  Interning without a
  // parent stores every fragment as a full encoding.
  const VecAdd w;
  const std::vector<sem::Machine> walk =
      random_walk(w.prg, w.kc, w.init, 17, 200);

  auto resident = [&](bool chain) {
    StateStore store;
    StateId parent{};
    for (const sem::Machine& m : walk) {
      const auto r = store.intern(m, ~0ull, chain ? parent : StateId{});
      parent = r.id;
    }
    EXPECT_EQ(store.stats().delta_fragments > 0, chain);
    store.evict_all();  // demote hot objects so encoded size dominates
    return store.stats().resident_bytes;
  };
  EXPECT_LE(resident(true), resident(false));
}

// ---------------------------------------------------------------------
// Dedup when every hash collides

TEST(StoreTier, CollidingDemotedFragmentsDedupByBytes) {
  // hash_mask 0 files every fragment and state under one hash, and
  // evict_all() demotes every fragment, so each re-intern byte-compares
  // its canonical encoding against every demoted candidate in that one
  // bucket — the only intern path that does, here driven with every
  // hash colliding.
  const Lattice w(5, 6);
  const std::vector<sem::Machine> walk = random_walk(w, 19, 80);

  StoreOptions o;
  o.hash_mask = 0;
  o.spill_dir = testing::TempDir();
  o.resident_budget_bytes = 4 << 10;  // small enough to keep evicting
  StateStore store(o);

  std::vector<StateId> ids;
  StateId parent{};
  for (const sem::Machine& m : walk) {
    const auto r = store.intern(m, ~0ull, parent);
    ASSERT_TRUE(r.id.valid());
    parent = r.id;
    ids.push_back(r.id);
  }
  const std::uint64_t size = store.size();
  store.evict_all();

  // Re-intern everything: all dedup hits, none may insert.
  for (std::size_t i = 0; i < walk.size(); ++i) {
    const auto again = store.intern(walk[i]);
    EXPECT_FALSE(again.inserted) << i;
    EXPECT_EQ(again.id, ids[i]) << i;
  }
  EXPECT_EQ(store.size(), size);
  for (std::size_t i = 0; i < walk.size(); ++i) {
    EXPECT_EQ(store.materialize(ids[i]), walk[i]) << i;
  }
  EXPECT_GT(store.stats().rematerializations, 0u);
}

// ---------------------------------------------------------------------
// Live reconfiguration (the resume path)

TEST(StoreTier, ConfigureOnLiveStorePreservesStates) {
  const Lattice w(5, 6);
  const std::vector<sem::Machine> walk = random_walk(w, 23, 60);

  StateStore store;  // default: everything hot, no spill
  std::vector<StateId> ids;
  StateId parent{};
  for (const sem::Machine& m : walk) {
    const auto r = store.intern(m, ~0ull, parent);
    parent = r.id;
    ids.push_back(r.id);
  }

  // The resume path: a default-configured store from checkpoint decode
  // gets this run's tier knobs applied afterwards.
  StoreOptions o;
  o.spill_dir = testing::TempDir();
  o.resident_budget_bytes = 4 << 10;
  store.configure(o);
  store.evict_all();
  EXPECT_GT(store.stats().spilled_bytes, 0u);

  for (std::size_t i = 0; i < walk.size(); ++i) {
    EXPECT_EQ(store.materialize(ids[i]), walk[i]) << i;
    const auto again = store.intern(walk[i]);
    EXPECT_FALSE(again.inserted) << i;
    EXPECT_EQ(again.id, ids[i]) << i;
  }
}

// ---------------------------------------------------------------------
// Whole-engine property: tiering never changes a verdict.

TEST(StoreTier, ExplorationVerdictIdenticalUnderTightBudget) {
  const Lattice w(5, 8);
  ExploreOptions plain;
  plain.stop_at_first_violation = false;
  const ExploreResult full = explore(w.prg, w.kc, w.init, plain);
  ASSERT_TRUE(full.exhaustive);
  ASSERT_GT(full.states_visited, 100u);

  ExploreOptions tight = plain;
  tight.store_spill_dir = testing::TempDir();
  tight.store_resident_budget_bytes = 32 << 10;
  const ExploreResult tiered = explore(w.prg, w.kc, w.init, tight);
  EXPECT_TRUE(tiered.exhaustive);
  EXPECT_EQ(tiered.states_visited, full.states_visited);
  EXPECT_EQ(tiered.transitions, full.transitions);
  EXPECT_EQ(tiered.final_ids.size(), full.final_ids.size());
  const auto af = finals_of(full);
  const auto bf = finals_of(tiered);
  for (std::size_t i = 0; i < af.size(); ++i) EXPECT_EQ(af[i], bf[i]);
  // The budget bit: the run actually spilled, and the spilled bytes
  // are excluded from the resident figure.
  EXPECT_GT(tiered.store_stats.spilled_bytes, 0u);
  EXPECT_LT(tiered.store_stats.resident_bytes,
            full.store_stats.resident_bytes);
}

}  // namespace
}  // namespace cac::sched
