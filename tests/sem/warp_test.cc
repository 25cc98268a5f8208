#include "sem/warp.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>

#include "support/binio.h"
#include "support/diag.h"

namespace cac::sem {
namespace {

const ptx::Reg r1{ptx::TypeClass::UI, 32, 1};

/// A warp of threads [first_tid, first_tid + n) with the given tree.
Warp with_tree(std::uint32_t first_tid, std::uint32_t n, DivTree t) {
  Warp w = make_warp(first_tid, n);
  w.set_tree(std::move(t));
  return w;
}

DivTree leaf(std::uint32_t n, std::uint32_t pc,
             const std::vector<std::uint32_t>& lanes) {
  return DivTree::leaf(n, pc, lanes);
}

TEST(Warp, UniformBasics) {
  const Warp w = make_warp(4, 3);
  EXPECT_FALSE(w.divergent());
  EXPECT_EQ(w.pc(), 0u);
  EXPECT_EQ(w.thread_count(), 3u);
  EXPECT_EQ(w.leaf_count(), 1u);
  EXPECT_EQ(w.depth(), 1u);
  EXPECT_EQ(w.tids()[0], 4u);
  EXPECT_EQ(w.tids()[2], 6u);
}

TEST(Warp, DivergentTreeShape) {
  const Warp w = with_tree(
      0, 4, DivTree::div(leaf(4, 10, {0, 1}), leaf(4, 20, {2, 3})));
  EXPECT_TRUE(w.divergent());
  EXPECT_EQ(w.pc(), 10u);  // left-most leaf pc
  EXPECT_EQ(w.thread_count(), 4u);
  EXPECT_EQ(w.leaf_count(), 2u);
  EXPECT_EQ(w.depth(), 2u);
  EXPECT_EQ(w.shape(), "D(U(10;2),U(20;2))");
}

TEST(Warp, TreeMustPartitionTheLanes) {
  Warp w = make_warp(0, 4);
  EXPECT_THROW(w.set_tree(DivTree::div(leaf(4, 1, {0, 1}), leaf(4, 2, {1, 2, 3}))),
               KernelError);  // overlap
  EXPECT_THROW(w.set_tree(DivTree::div(leaf(4, 1, {0}), leaf(4, 2, {2, 3}))),
               KernelError);  // lane 1 missing
  EXPECT_THROW(leaf(4, 1, {4}), KernelError);
}

TEST(Warp, DeepCopyIsIndependent) {
  const Warp a =
      with_tree(0, 2, DivTree::div(leaf(2, 1, {0}), leaf(2, 2, {1})));
  Warp b = a;
  b.set_pc(99);  // the left-most leaf
  EXPECT_EQ(a.left().uni_pc(), 1u);
  EXPECT_EQ(b.left().uni_pc(), 99u);
  EXPECT_NE(a, b);
  EXPECT_THROW(b.set_uni_pc(3), KernelError);  // a Div root has no pc
}

TEST(Warp, EqualityAndHash) {
  const Warp a =
      with_tree(0, 2, DivTree::div(leaf(2, 1, {0}), leaf(2, 2, {1})));
  const Warp b =
      with_tree(0, 2, DivTree::div(leaf(2, 1, {0}), leaf(2, 2, {1})));
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  // A uniform warp and a divergent warp with the same threads differ.
  const Warp c(0, 2, 1);
  EXPECT_NE(a, c);
}

// --- sync function (Fig. 2), case by case ---

TEST(SyncFn, UniformAdvances) {
  const Warp w = sync_warp(Warp(0, 2, 7));
  EXPECT_FALSE(w.divergent());
  EXPECT_EQ(w.uni_pc(), 8u);
}

TEST(SyncFn, EmptyLeftCollapses) {
  // sync((pc1,{}), w2) = sync(w2)
  const Warp w =
      sync_warp(with_tree(0, 1, DivTree::div(leaf(1, 5, {}), leaf(1, 9, {0}))));
  EXPECT_FALSE(w.divergent());
  EXPECT_EQ(w.uni_pc(), 10u);
  EXPECT_EQ(w.thread_count(), 1u);
}

TEST(SyncFn, EmptyRightCollapses) {
  const Warp w =
      sync_warp(with_tree(0, 1, DivTree::div(leaf(1, 9, {0}), leaf(1, 5, {}))));
  EXPECT_FALSE(w.divergent());
  EXPECT_EQ(w.uni_pc(), 10u);
}

TEST(SyncFn, SamePcMergesSortedByTid) {
  const Warp w = sync_warp(
      with_tree(0, 4, DivTree::div(leaf(4, 9, {2, 3}), leaf(4, 9, {0, 1}))));
  EXPECT_FALSE(w.divergent());
  EXPECT_EQ(w.uni_pc(), 10u);
  ASSERT_EQ(w.thread_count(), 4u);
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(w.tids()[i], i);
  }
}

TEST(SyncFn, DifferentPcRotates) {
  // sync((pc1,t1), w2) = (w2, (pc1,t1)) — the lagging side moves left.
  const Warp w =
      sync_warp(with_tree(0, 2, DivTree::div(leaf(2, 9, {0}), leaf(2, 5, {1}))));
  ASSERT_TRUE(w.divergent());
  EXPECT_EQ(w.left().uni_pc(), 5u);
  EXPECT_EQ(w.right().uni_pc(), 9u);
}

TEST(SyncFn, DivergentLeftRecurses) {
  // sync(w1, w2) = (sync(w1), w2) when w1 is divergent.
  const DivTree inner = DivTree::div(leaf(3, 9, {0}), leaf(3, 9, {1}));
  const Warp w =
      sync_warp(with_tree(0, 3, DivTree::div(inner, leaf(3, 3, {2}))));
  ASSERT_TRUE(w.divergent());
  EXPECT_FALSE(w.left().divergent());
  EXPECT_EQ(w.left().uni_pc(), 10u);  // inner pair merged
  EXPECT_EQ(w.left().lanes().size(), 2u);
  EXPECT_EQ(w.right().uni_pc(), 3u);
}

TEST(SyncFn, NestedEmptySides) {
  // A tree of empties around one real leaf collapses to that leaf +1.
  const Warp w = with_tree(
      7, 1,
      DivTree::div(DivTree::div(leaf(1, 1, {}), leaf(1, 4, {0})), leaf(1, 2, {})));
  const Warp s = sync_warp(w);
  EXPECT_FALSE(s.divergent());
  EXPECT_EQ(s.uni_pc(), 5u);
  EXPECT_EQ(s.tids()[0], 7u);
}

TEST(SyncFn, PreservesThreadState) {
  Warp w = make_warp(0, 2);
  w.write(0, r1, 42);
  w.write_pred(0, {1}, true);
  w.set_tree(DivTree::div(leaf(2, 9, {0}), leaf(2, 9, {1})));
  const Warp s = sync_warp(w);
  EXPECT_EQ(s.read(0, r1), 42u);
  EXPECT_TRUE(s.pred(0, {1}));
}

// --- registers and predicates ---

TEST(WarpRegisters, ReadsAreCanonical) {
  Warp w = make_warp(0, 2);
  const ptx::Reg r8{ptx::TypeClass::UI, 8, 1};
  w.write(0, r8, 0x1ff);  // truncated to width
  EXPECT_EQ(w.read(0, r8), 0xffu);
  EXPECT_FALSE(w.read_opt(1, r8).has_value());  // row exists, lane unwritten
  EXPECT_FALSE(w.read_opt(0, {ptx::TypeClass::UI, 8, 2}).has_value());
  EXPECT_EQ(w.read(0, {ptx::TypeClass::UI, 8, 2}), 0u);
}

TEST(WarpRegisters, PredicatesDefaultFalse) {
  Warp w = make_warp(0, 1);
  EXPECT_FALSE(w.pred(0, {3}));
  w.write_pred(0, {3}, true);
  EXPECT_TRUE(w.pred(0, {3}));
  w.write_pred(0, {3}, false);
  EXPECT_FALSE(w.pred(0, {3}));
}

TEST(WarpRegisters, WrittenDiffersFromNeverWritten) {
  // A predicate written false and a register written 0 are state: the
  // semantics keeps them apart from the unwritten ones.
  const Warp fresh = make_warp(0, 2);
  Warp p = fresh;
  p.write_pred(1, {2}, false);
  Warp r = fresh;
  r.write(1, r1, 0);
  EXPECT_NE(fresh, p);
  EXPECT_NE(fresh, r);
  EXPECT_FALSE(p.pred(1, {2}));
  EXPECT_EQ(r.read(1, r1), 0u);
}

TEST(WarpRegisters, WideWarpsSpanSeveralMaskWords) {
  Warp w = make_warp(0, 130);
  EXPECT_EQ(w.mask_words(), 3u);
  w.write(129, r1, 5);
  w.write_pred(64, {1}, true);
  EXPECT_EQ(w.read(129, r1), 5u);
  EXPECT_FALSE(w.read_opt(128, r1).has_value());
  EXPECT_TRUE(w.pred(64, {1}));
  EXPECT_FALSE(w.pred(63, {1}));
}

// --- canonical codec ---

std::string encode(const Warp& w) {
  support::BinWriter bw;
  w.encode(bw);
  return bw.take();
}

/// Decode `b`; when it is accepted, the re-encoding must reproduce the
/// bytes it consumed.  Returns whether `b` was accepted.
bool accepts_canonically(const std::string& b) {
  support::BinReader r(b);
  Warp w;
  try {
    w = Warp::decode(r);
  } catch (const support::BinError&) {
    return false;
  }
  EXPECT_EQ(encode(w), b.substr(0, b.size() - r.remaining()));
  return true;
}

/// A divergent 3-lane warp with two registers and two predicates.
Warp sample_warp() {
  Warp w = make_warp(8, 3);
  w.write(0, r1, 7);
  w.write(2, r1, 9);
  w.write(1, {ptx::TypeClass::SI, 64, 4}, 0xffffffffffull);
  w.write_pred(0, {1}, true);
  w.write_pred(2, {1}, false);
  w.write_pred(1, {5}, false);
  w.set_tree(DivTree::div(leaf(3, 4, {0, 2}), leaf(3, 6, {1})));
  return w;
}

// Byte offsets into sample_warp()'s encoding (see Warp::encode), on a
// little-endian host: a 16-byte header, a directory of 2 register keys
// and 2 predicate indices, 2 register rows of 4 words, 2 predicate rows
// of 2 words, the u64 node count, and 3 tree nodes of 2 words.
constexpr std::size_t kDir = 16;
constexpr std::size_t kData = kDir + 16;
constexpr std::size_t kPreds = kData + 2 * 4 * 8;
constexpr std::size_t kTree = kPreds + 2 * 2 * 8 + 8;

TEST(WarpCodec, RoundTrips) {
  for (const Warp& w : {make_warp(0, 1), make_warp(5, 64), make_warp(0, 65),
                        sample_warp(), sync_warp(sample_warp())}) {
    const std::string b = encode(w);
    support::BinReader r(b);
    const Warp back = Warp::decode(r);
    EXPECT_TRUE(r.done());
    EXPECT_EQ(back, w);
    EXPECT_EQ(encode(back), b);
  }
}

TEST(WarpCodec, MemoizedHashTracksEveryMutator) {
  // A decoded warp hashes from scratch, so it exposes a stale cache.
  const auto fresh_hash = [](const Warp& w) {
    const std::string b = encode(w);
    support::BinReader r(b);
    return Warp::decode(r).hash();
  };
  Warp w = make_warp(0, 3);
  std::vector<std::uint64_t> seen{w.hash()};
  const auto check = [&] {
    EXPECT_EQ(w.hash(), fresh_hash(w));
    seen.push_back(w.hash());
  };
  w.write(1, r1, 5);
  check();
  w.write_pred(2, {1}, true);
  check();
  w.set_uni_pc(3);
  check();
  w.reg_row_for_write(r1)[1] = 6;  // the step kernel's row access
  check();
  w.pred_row_for_write({1})[0] = 0;
  check();
  const std::uint64_t fall[] = {0b011}, taken[] = {0b100};
  w.branch(4, fall, 9, taken);
  check();
  w.set_pc(5);
  check();
  w = sync_warp(w);
  check();
  w.set_tree(DivTree::leaf(3, 0, {0, 1, 2}));
  check();
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::unique(seen.begin(), seen.end()), seen.end());
}

TEST(WarpCodec, RejectsEachNonCanonicalForm) {
  const std::string good = encode(sample_warp());
  ASSERT_EQ(good.size(), kTree + 3 * 16);
  const auto u32_at = [&](std::string b, std::size_t off, std::uint32_t v) {
    std::memcpy(b.data() + off, &v, 4);
    return b;
  };
  const auto u64_at = [&](std::string b, std::size_t off, std::uint64_t v) {
    std::memcpy(b.data() + off, &v, 8);
    return b;
  };
  const std::uint32_t k1 = r1.key();
  const std::uint32_t k4 = ptx::Reg{ptx::TypeClass::SI, 64, 4}.key();
  // Unsorted and duplicate register keys; duplicate predicate indices;
  // a predicate index that does not fit a Pred.
  EXPECT_FALSE(accepts_canonically(u32_at(u32_at(good, kDir, k4), kDir + 4, k1)));
  EXPECT_FALSE(accepts_canonically(u32_at(good, kDir + 4, k1)));
  EXPECT_FALSE(accepts_canonically(u32_at(good, kDir + 12, 1)));
  EXPECT_FALSE(accepts_canonically(u32_at(good, kDir + 12, 0x10005)));
  // A nonzero value in an unwritten slot (r1, lane 1).
  EXPECT_FALSE(accepts_canonically(u64_at(good, kData + 8, 3)));
  // A value wider than its register (r1 is 32 bits).
  EXPECT_FALSE(accepts_canonically(u64_at(good, kData, 1ull << 32)));
  // Written-mask bits past the lane count; a row nobody wrote.
  EXPECT_FALSE(accepts_canonically(u64_at(good, kData + 24, 0b1101)));
  EXPECT_FALSE(accepts_canonically(u64_at(good, kData + 24, 0)));
  // A predicate value on an unwritten lane (p5 is written on lane 1).
  EXPECT_FALSE(accepts_canonically(u64_at(good, kPreds + 16, 0b100)));
  // Leaves that overlap, leave a lane out, or are empty.
  EXPECT_FALSE(accepts_canonically(u64_at(good, kTree + 40, 0b011)));
  EXPECT_FALSE(accepts_canonically(u64_at(good, kTree + 24, 0b001)));
  EXPECT_FALSE(accepts_canonically(u64_at(good, kTree + 40, 0)));
  // A Div node carrying lanes; a zero-lane warp.
  EXPECT_FALSE(accepts_canonically(u64_at(good, kTree + 8, 1)));
  EXPECT_FALSE(accepts_canonically(u32_at(good, 4, 0)));
  // And the good bytes still pass.
  EXPECT_TRUE(accepts_canonically(good));
}

TEST(WarpCodec, MutationsThrowOrRoundTrip) {
  const std::string good = encode(sample_warp());
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;
  const auto next = [&] {
    seed ^= seed << 13;
    seed ^= seed >> 7;
    seed ^= seed << 17;
    return seed;
  };
  int accepted = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    std::string b = good;
    const int flips = 1 + static_cast<int>(next() % 3);
    for (int f = 0; f < flips; ++f) {
      const std::size_t at = next() % b.size();
      switch (next() % 4) {
        case 0:  // flip one bit anywhere
          b[at] = static_cast<char>(b[at] ^ (1 << (next() % 8)));
          break;
        case 1: {  // swap two directory keys
          const std::size_t x = kDir + 4 * (next() % 4);
          const std::size_t y = kDir + 4 * (next() % 4);
          std::swap_ranges(b.begin() + x, b.begin() + x + 4, b.begin() + y);
          break;
        }
        case 2: {  // duplicate a directory key over its neighbour
          const std::size_t k = next() % 3;
          std::memcpy(b.data() + kDir + 4 * (k + 1), b.data() + kDir + 4 * k,
                      4);
          break;
        }
        default: {  // a stray bit in a word of the rows or the tree
          const std::size_t word = kData + 8 * (next() % ((b.size() - kData) / 8));
          b[word] = static_cast<char>(b[word] ^ (1 << (next() % 8)));
          break;
        }
      }
    }
    if (accepts_canonically(b)) ++accepted;
  }
  // Some mutations are legal states (a flipped value bit of a written
  // lane); most are not.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, 4000);
}

}  // namespace
}  // namespace cac::sem
