#include "sem/state.h"

#include <gtest/gtest.h>

namespace cac::sem {
namespace {

TEST(GenerateGrid, PaperConfig) {
  // kc = ((1,1,1),(32,1,1)): one block, one warp of 32 threads.
  const Grid g = generate_grid({{1, 1, 1}, {32, 1, 1}, 32});
  ASSERT_EQ(g.blocks.size(), 1u);
  ASSERT_EQ(g.blocks[0].warps.size(), 1u);
  const Warp& w = *g.blocks[0].warps[0];
  EXPECT_FALSE(w.divergent());
  EXPECT_EQ(w.uni_pc(), 0u);
  ASSERT_EQ(w.thread_count(), 32u);
  for (std::uint32_t i = 0; i < 32; ++i) {
    EXPECT_EQ(w.tids()[i], i);
  }
}

TEST(GenerateGrid, MultiBlockMultiWarp) {
  const Grid g = generate_grid({{2, 1, 1}, {6, 1, 1}, 4});
  ASSERT_EQ(g.blocks.size(), 2u);
  ASSERT_EQ(g.blocks[0].warps.size(), 2u);
  EXPECT_EQ(g.blocks[0].warps[0]->thread_count(), 4u);
  EXPECT_EQ(g.blocks[0].warps[1]->thread_count(), 2u);  // partial warp
  // Thread ids are globally enumerated across blocks (paper §III-7).
  EXPECT_EQ(g.blocks[1].warps[0]->tids()[0], 6u);
  EXPECT_EQ(g.blocks[1].warps[1]->tids()[1], 11u);
}

TEST(GenerateGrid, ThreeDimensionalCounts) {
  const Grid g = generate_grid({{2, 2, 1}, {2, 2, 2}, 8});
  EXPECT_EQ(g.blocks.size(), 4u);
  EXPECT_EQ(g.blocks[0].warps.size(), 1u);
  EXPECT_EQ(g.blocks[0].warps[0]->thread_count(), 8u);
}

TEST(MachineState, EqualityAndHash) {
  const KernelConfig kc{{1, 1, 1}, {4, 1, 1}, 4};
  Machine a{generate_grid(kc), mem::Memory(mem::MemSizes{16, 0, 0, 0, 1})};
  Machine b = a;
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());

  // hash() memoizes; direct grid mutation (outside sem::apply_choice,
  // which invalidates automatically) requires invalidate_hash().
  unique_warp(b.grid.blocks[0].warps[0]).set_uni_pc(1);
  b.invalidate_hash();
  EXPECT_NE(a, b);
  EXPECT_NE(a.hash(), b.hash());

  // Memory mutators track their own cache, but the combined machine
  // hash still needs the explicit invalidation on direct writes.
  Machine c = a;
  c.memory.store(mem::Space::Global, 0, 1, 1, false);
  c.invalidate_hash();
  EXPECT_NE(a, c);
  EXPECT_NE(a.hash(), c.hash());
}

TEST(MachineState, HashSensitiveToRegisters) {
  const KernelConfig kc{{1, 1, 1}, {2, 1, 1}, 2};
  Machine a{generate_grid(kc), mem::Memory{}};
  Machine b = a;
  unique_warp(b.grid.blocks[0].warps[0])
      .write(1, {ptx::TypeClass::UI, 32, 1}, 5);
  b.invalidate_hash();
  EXPECT_NE(a, b);
  EXPECT_NE(a.hash(), b.hash());
}

TEST(MachineState, EqualityIgnoresHashCacheStaleness) {
  // operator== compares real state only — a stale memoized hash can
  // never make equal machines compare unequal or vice versa.
  const KernelConfig kc{{1, 1, 1}, {2, 1, 1}, 2};
  Machine a{generate_grid(kc), mem::Memory(mem::MemSizes{8, 0, 0, 0, 1})};
  Machine b = a;
  (void)a.hash();  // a's cache warm, b's cold
  EXPECT_EQ(a, b);
  unique_warp(b.grid.blocks[0].warps[0]).set_uni_pc(3);  // no invalidate
  EXPECT_NE(a, b);
}

TEST(MachineState, ToStringShowsShapes) {
  const Grid g = generate_grid({{1, 1, 1}, {4, 1, 1}, 2});
  const std::string s = to_string(g);
  EXPECT_NE(s.find("block 0"), std::string::npos);
  EXPECT_NE(s.find("U(0;2)"), std::string::npos);
}

}  // namespace
}  // namespace cac::sem
