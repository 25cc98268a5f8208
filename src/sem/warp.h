// Warps (paper §III-7, §III-8): a divergence tree — `Uni (pc, ts)` or
// `Div (w1 w2)` — over threads θ = (tid, ρ, φ), and the reconvergence
// function `sync` of Fig. 2.
//
// A warp's threads have consecutive ids, so thread first_tid + l is
// *lane* l.  The ρ and φ of all lanes live in one struct-of-arrays
// block: a sorted directory of the registers, then the predicates, that
// any lane has written; per register a row of lane values and a
// written-lane mask (unwritten slots hold 0); per predicate a value mask
// and a written-lane mask.  Tree leaves hold a pc and a lane mask, which
// is exact because leaf thread sets are always tid-ascending.  Masks are
// ⌈lanes/64⌉ words, so the warp size stays a free parameter.  See
// docs/semantics.md §1.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "ptx/operand.h"
#include "support/hash.h"

namespace cac::support {
class BinWriter;
class BinReader;
}  // namespace cac::support

namespace cac::sem {

/// Words in a lane mask of a warp `lanes` lanes wide.
constexpr std::size_t mask_words(std::uint32_t lanes) {
  return (static_cast<std::size_t>(lanes) + 63) / 64;
}

constexpr bool lane_set(const std::uint64_t* mask, std::uint32_t lane) {
  return ((mask[lane / 64] >> (lane % 64)) & 1) != 0;
}

/// Call f(lane) for every set lane of a `words`-word mask, ascending.
template <typename F>
void for_each_lane(const std::uint64_t* mask, std::size_t words, F&& f) {
  for (std::size_t i = 0; i < words; ++i) {
    for (std::uint64_t m = mask[i]; m != 0; m &= m - 1) {
      f(static_cast<std::uint32_t>(64 * i + __builtin_ctzll(m)));
    }
  }
}

/// The divergence tree of Fig. 2 in preorder.  A node is 1 + ⌈lanes/64⌉
/// words: a leaf's pc (or the Div marker), then the leaf's lane mask
/// (zero for Div).  The left-most leaf, which executes next, is the
/// first leaf in preorder.
class DivTree {
 public:
  /// A uniform zero-lane tree at pc 0.
  DivTree() : DivTree(std::size_t{0}) { nodes_.push_back(0); }

  /// Leaf (pc, lanes) of a warp `width` lanes wide.
  static DivTree leaf(std::uint32_t width, std::uint32_t pc,
                      const std::vector<std::uint32_t>& lanes);
  /// Div(left, right): the left side executes first (Fig. 1 rule (div)).
  static DivTree div(const DivTree& left, const DivTree& right);

  [[nodiscard]] bool divergent() const { return nodes_.size() > stride(); }
  /// ωpc — the pc of the left-most leaf.
  [[nodiscard]] std::uint32_t pc() const { return leaf_pc(leftmost()); }
  /// The pc of a uniform tree (valid only when !divergent()).
  [[nodiscard]] std::uint32_t uni_pc() const { return leaf_pc(0); }
  /// Copies of a Div root's subtrees (valid only when divergent()).
  [[nodiscard]] DivTree left() const { return subtree(1); }
  [[nodiscard]] DivTree right() const { return subtree(subtree_end(1)); }
  [[nodiscard]] std::size_t leaf_count() const;
  [[nodiscard]] std::size_t depth() const;
  /// Lanes of all leaves, left to right (each leaf ascending).
  [[nodiscard]] std::vector<std::uint32_t> lanes() const;
  /// Compact shape string, e.g. "D(U(10;3),U(18;1))".
  [[nodiscard]] std::string shape() const;
  /// The reconvergence function of Fig. 2 (see sync_warp).
  [[nodiscard]] DivTree sync() const;

  friend bool operator==(const DivTree&, const DivTree&) = default;

 private:
  friend class Warp;
  static constexpr std::uint64_t kDivNode = 1ull << 32;  // above any pc

  /// A tree with no nodes yet whose masks are `words` words.
  explicit DivTree(std::size_t words)
      : words_(static_cast<std::uint32_t>(words)) {}

  [[nodiscard]] std::size_t stride() const { return 1 + words_; }
  [[nodiscard]] std::size_t node_count() const {
    return nodes_.size() / stride();
  }
  [[nodiscard]] bool is_div(std::size_t n) const {
    return nodes_[n * stride()] == kDivNode;
  }
  [[nodiscard]] std::uint32_t leaf_pc(std::size_t n) const {
    return static_cast<std::uint32_t>(nodes_[n * stride()]);
  }
  [[nodiscard]] const std::uint64_t* leaf_mask(std::size_t n) const {
    return nodes_.data() + n * stride() + 1;
  }
  [[nodiscard]] bool leaf_empty(std::size_t n) const;
  [[nodiscard]] std::size_t subtree_end(std::size_t n) const;
  [[nodiscard]] std::size_t leftmost() const;
  [[nodiscard]] DivTree subtree(std::size_t n) const;
  void push_leaf(std::uint32_t pc, const std::uint64_t* mask);
  void push_div();
  void append(const DivTree& t, std::size_t first, std::size_t last);
  /// Emit sync(subtree at n) into `out`; returns the node past it.
  std::size_t sync_into(std::size_t n, DivTree& out) const;
  std::size_t depth_at(std::size_t n, std::size_t& depth) const;
  std::size_t shape_at(std::size_t n, std::string& out) const;

  std::uint32_t words_ = 0;
  std::vector<std::uint64_t> nodes_;
};

class Warp {
 public:
  Warp() = default;
  /// Uniform warp at `pc` of threads [first_tid, first_tid + lanes),
  /// every register and predicate unwritten.
  Warp(std::uint32_t first_tid, std::uint32_t lanes, std::uint32_t pc = 0);

  [[nodiscard]] std::uint32_t first_tid() const { return first_tid_; }
  [[nodiscard]] std::uint32_t lanes() const { return lanes_; }
  [[nodiscard]] std::uint32_t tid(std::uint32_t lane) const {
    return first_tid_ + lane;
  }
  [[nodiscard]] std::size_t mask_words() const { return tree_.words_; }

  // --- the divergence tree ---
  [[nodiscard]] const DivTree& tree() const { return tree_; }
  /// Replace the tree (hand-built shapes in tests and benches).  Throws
  /// KernelError unless its leaves are disjoint and cover every lane.
  void set_tree(DivTree t);
  [[nodiscard]] bool divergent() const { return tree_.divergent(); }
  [[nodiscard]] std::uint32_t pc() const { return tree_.pc(); }
  [[nodiscard]] std::uint32_t uni_pc() const { return tree_.uni_pc(); }
  void set_uni_pc(std::uint32_t pc);
  [[nodiscard]] DivTree left() const { return tree_.left(); }
  [[nodiscard]] DivTree right() const { return tree_.right(); }
  [[nodiscard]] std::size_t thread_count() const {
    return tree_.lanes().size();
  }
  /// Thread ids of all leaves, left to right.
  [[nodiscard]] std::vector<std::uint32_t> tids() const;
  [[nodiscard]] std::size_t leaf_count() const { return tree_.leaf_count(); }
  [[nodiscard]] std::size_t depth() const { return tree_.depth(); }
  [[nodiscard]] std::string shape() const { return tree_.shape(); }

  // --- the left-most leaf, for the semantics kernel (sem/step.cc) ---
  void set_pc(std::uint32_t pc) { set_node(tree_.leftmost(), pc); }
  /// Its lane mask; valid until the tree changes.
  [[nodiscard]] const std::uint64_t* active_lanes() const {
    return tree_.leaf_mask(tree_.leftmost());
  }
  /// PBra: the leaf becomes Div(Leaf(fall_pc, fall), Leaf(taken_pc,
  /// taken)), or one leaf when a side is empty.  The masks must not
  /// point into the tree.
  void branch(std::uint32_t fall_pc, const std::uint64_t* fall,
              std::uint32_t taken_pc, const std::uint64_t* taken);

  // --- registers ρ and predicates φ, one lane at a time ---
  /// nullopt when the lane never wrote the register.
  [[nodiscard]] std::optional<std::uint64_t> read_opt(
      std::uint32_t lane, const ptx::Reg& r) const;
  [[nodiscard]] std::uint64_t read(std::uint32_t lane,
                                   const ptx::Reg& r) const {
    return read_opt(lane, r).value_or(0);
  }
  /// Stores `value` truncated to the register's width.
  void write(std::uint32_t lane, const ptx::Reg& r, std::uint64_t value);
  /// A predicate never written reads false.
  [[nodiscard]] bool pred(std::uint32_t lane, const ptx::Pred& p) const;
  void write_pred(std::uint32_t lane, const ptx::Pred& p, bool value);

  // --- whole rows, for the semantics kernel ---
  // A register row is lanes() values, then a mask_words()-word
  // written-lane mask; a predicate row is a value mask, then a
  // written-lane mask.  find_* returns nullptr when no lane has written
  // the register.  *_row_for_write adds an unwritten row when absent,
  // which moves every later row: resolve destinations before sources.
  [[nodiscard]] const std::uint64_t* find_reg(const ptx::Reg& r) const;
  std::uint64_t* reg_row_for_write(const ptx::Reg& r);
  [[nodiscard]] const std::uint64_t* find_pred(const ptx::Pred& p) const;
  std::uint64_t* pred_row_for_write(const ptx::Pred& p);

  /// Structural equality (the memoized hash is not part of it).
  bool operator==(const Warp& other) const;
  /// The structural hash, memoized: every mutator above invalidates
  /// it, so a copied warp that is never stepped is never rehashed.  As
  /// with Machine::hash, the owning thread hashes a warp before it is
  /// shared.
  [[nodiscard]] std::uint64_t hash() const;
  /// Bytes this warp occupies, inline and on the heap.
  [[nodiscard]] std::uint64_t deep_bytes() const;

  /// Checkpoint codec (sched/checkpoint.h), little-endian words.
  /// decode throws support::BinError on malformed *or non-canonical*
  /// input, so encode(decode(b)) == b for every b it accepts and byte
  /// equality of encodings is structural equality (the state store's
  /// dedup relies on it).
  void encode(support::BinWriter& w) const;
  static Warp decode(support::BinReader& r);

 private:
  friend Warp sync_warp(Warp w);

  [[nodiscard]] std::size_t reg_stride() const {
    return lanes_ + mask_words();
  }
  [[nodiscard]] std::size_t pred_base() const {
    return n_regs_ * reg_stride();
  }
  void set_node(std::size_t n, std::uint32_t pc) {
    hash_cache_.invalidate();
    tree_.nodes_[n * tree_.stride()] = pc;
  }
  std::uint64_t* insert_row(std::size_t dir_pos, std::uint32_t key,
                            std::size_t data_pos, std::size_t words);
  void check_lane(std::uint32_t lane) const;

  std::uint32_t first_tid_ = 0;
  std::uint32_t lanes_ = 0;
  std::uint32_t n_regs_ = 0;         // dir_[0, n_regs_) are registers
  std::vector<std::uint32_t> dir_;   // Reg::key()s, then Pred indices
  std::vector<std::uint64_t> data_;  // register rows, then predicate rows
  DivTree tree_;
  HashCache hash_cache_;
};

/// The reconvergence function of Fig. 2, applied by the Sync rule to
/// the whole warp tree:
///
///   sync(pc, t)                          = (pc+1, t)
///   sync((pc1, {}), w2)                  = sync(w2)
///   sync(w1, (pc2, {}))                  = sync(w1)
///   sync((pc1,t1), (pc2,t2)) | pc1=pc2   = (pc1+1, t1 u t2)
///   sync((pc1,t1), w2)                   = (w2, (pc1,t1))
///   sync(w1, w2)                         = (sync(w1), w2)
///
/// A merged leaf is the union of two lane masks, i.e. the tid-sorted
/// union, so equal warps compare equal whatever their history.
Warp sync_warp(Warp w);

/// Build a uniform warp at pc 0 from thread ids [first, first+n).
inline Warp make_warp(std::uint32_t first_tid, std::uint32_t n) {
  return Warp(first_tid, n);
}

}  // namespace cac::sem
