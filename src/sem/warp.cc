#include "sem/warp.h"

#include <algorithm>
#include <type_traits>

#include "support/binio.h"
#include "support/bits.h"
#include "support/diag.h"

namespace cac::sem {

namespace {

bool all_zero(const std::uint64_t* mask, std::size_t words) {
  return std::all_of(mask, mask + words, [](std::uint64_t w) { return w == 0; });
}

/// The mask of lanes [0, lanes).
std::vector<std::uint64_t> full_mask(std::uint32_t lanes) {
  std::vector<std::uint64_t> m(mask_words(lanes), ~0ull);
  if (lanes % 64 != 0) m.back() = (1ull << (lanes % 64)) - 1;
  return m;
}

}  // namespace

// --- divergence tree ----------------------------------------------------

DivTree DivTree::leaf(std::uint32_t width, std::uint32_t pc,
                      const std::vector<std::uint32_t>& lanes) {
  DivTree t(mask_words(width));
  std::vector<std::uint64_t> mask(t.words_, 0);
  for (const std::uint32_t l : lanes) {
    if (l >= width) throw KernelError("leaf lane beyond the warp width");
    mask[l / 64] |= 1ull << (l % 64);
  }
  t.push_leaf(pc, mask.data());
  return t;
}

DivTree DivTree::div(const DivTree& left, const DivTree& right) {
  if (left.words_ != right.words_) {
    throw KernelError("Div of trees over different warp widths");
  }
  DivTree t(left.words_);
  t.push_div();
  t.append(left, 0, left.node_count());
  t.append(right, 0, right.node_count());
  return t;
}

bool DivTree::leaf_empty(std::size_t n) const {
  return all_zero(leaf_mask(n), words_);
}

std::size_t DivTree::subtree_end(std::size_t n) const {
  // Each Div opens one more child slot than it fills; a leaf fills one.
  for (std::size_t open = 1; open != 0; ++n) {
    open = is_div(n) ? open + 1 : open - 1;
  }
  return n;
}

std::size_t DivTree::leftmost() const {
  std::size_t n = 0;
  while (is_div(n)) ++n;
  return n;
}

DivTree DivTree::subtree(std::size_t n) const {
  DivTree t(words_);
  t.append(*this, n, subtree_end(n));
  return t;
}

void DivTree::push_leaf(std::uint32_t pc, const std::uint64_t* mask) {
  nodes_.push_back(pc);
  nodes_.insert(nodes_.end(), mask, mask + words_);
}

void DivTree::push_div() {
  nodes_.push_back(kDivNode);
  nodes_.resize(nodes_.size() + words_, 0);
}

void DivTree::append(const DivTree& t, std::size_t first, std::size_t last) {
  nodes_.insert(nodes_.end(), t.nodes_.begin() + first * stride(),
                t.nodes_.begin() + last * stride());
}

std::size_t DivTree::sync_into(std::size_t n, DivTree& out) const {
  if (!is_div(n)) {
    out.push_leaf(leaf_pc(n) + 1, leaf_mask(n));  // sync(pc, t)
    return n + 1;
  }
  const std::size_t l = n + 1;
  const std::size_t r = subtree_end(l);
  const std::size_t end = subtree_end(r);
  if (!is_div(l) && leaf_empty(l)) {
    sync_into(r, out);
  } else if (!is_div(r) && leaf_empty(r)) {
    sync_into(l, out);
  } else if (!is_div(l) && !is_div(r) && leaf_pc(l) == leaf_pc(r)) {
    // Reconverge: the union of the two lane sets.
    out.push_leaf(leaf_pc(l) + 1, leaf_mask(l));
    std::uint64_t* merged = out.nodes_.data() + out.nodes_.size() - words_;
    for (std::size_t i = 0; i < words_; ++i) merged[i] |= leaf_mask(r)[i];
  } else if (!is_div(l)) {
    // Rotate so the still-divergent (or lagging) side executes next.
    out.push_div();
    out.append(*this, r, end);
    out.append(*this, l, r);
  } else {
    out.push_div();
    sync_into(l, out);
    out.append(*this, r, end);
  }
  return end;
}

DivTree DivTree::sync() const {
  DivTree out(words_);
  out.nodes_.reserve(nodes_.size());
  sync_into(0, out);
  return out;
}

std::size_t DivTree::leaf_count() const {
  std::size_t k = 0;
  for (std::size_t n = 0; n < node_count(); ++n) k += is_div(n) ? 0 : 1;
  return k;
}

std::size_t DivTree::depth_at(std::size_t n, std::size_t& depth) const {
  if (!is_div(n)) {
    depth = 1;
    return n + 1;
  }
  std::size_t dl = 0, dr = 0;
  const std::size_t end = depth_at(depth_at(n + 1, dl), dr);
  depth = 1 + std::max(dl, dr);
  return end;
}

std::size_t DivTree::depth() const {
  std::size_t d = 0;
  depth_at(0, d);
  return d;
}

std::vector<std::uint32_t> DivTree::lanes() const {
  std::vector<std::uint32_t> out;
  for (std::size_t n = 0; n < node_count(); ++n) {
    if (is_div(n)) continue;
    for_each_lane(leaf_mask(n), words_,
                  [&](std::uint32_t l) { out.push_back(l); });
  }
  return out;
}

std::size_t DivTree::shape_at(std::size_t n, std::string& out) const {
  if (!is_div(n)) {
    std::size_t k = 0;
    for_each_lane(leaf_mask(n), words_, [&](std::uint32_t) { ++k; });
    out += "U(" + std::to_string(leaf_pc(n)) + ";" + std::to_string(k) + ")";
    return n + 1;
  }
  out += "D(";
  const std::size_t r = shape_at(n + 1, out);
  out += ",";
  const std::size_t end = shape_at(r, out);
  out += ")";
  return end;
}

std::string DivTree::shape() const {
  std::string out;
  shape_at(0, out);
  return out;
}

// --- warp ---------------------------------------------------------------

Warp::Warp(std::uint32_t first_tid, std::uint32_t lanes, std::uint32_t pc)
    : first_tid_(first_tid), lanes_(lanes), tree_(sem::mask_words(lanes)) {
  tree_.push_leaf(pc, full_mask(lanes).data());
}

void Warp::set_tree(DivTree t) {
  if (t.words_ != mask_words()) {
    throw KernelError("divergence tree built for another warp width");
  }
  std::vector<std::uint64_t> seen(mask_words(), 0);
  for (std::size_t n = 0; n < t.node_count(); ++n) {
    for (std::size_t i = 0; i < mask_words() && !t.is_div(n); ++i) {
      if ((seen[i] & t.leaf_mask(n)[i]) != 0) {
        throw KernelError("divergence tree leaves overlap");
      }
      seen[i] |= t.leaf_mask(n)[i];
    }
  }
  if (seen != full_mask(lanes_)) {
    throw KernelError("divergence tree leaves do not cover the warp");
  }
  hash_cache_.invalidate();
  tree_ = std::move(t);
}

void Warp::set_uni_pc(std::uint32_t pc) {
  if (divergent()) throw KernelError("set_uni_pc on a divergent warp");
  set_node(0, pc);
}

std::vector<std::uint32_t> Warp::tids() const {
  std::vector<std::uint32_t> out = tree_.lanes();
  for (std::uint32_t& l : out) l += first_tid_;
  return out;
}

void Warp::branch(std::uint32_t fall_pc, const std::uint64_t* fall,
                  std::uint32_t taken_pc, const std::uint64_t* taken) {
  const std::size_t words = mask_words();
  if (all_zero(taken, words) || all_zero(fall, words)) {
    return set_pc(all_zero(taken, words) ? fall_pc : taken_pc);
  }
  hash_cache_.invalidate();
  // The leaf's node becomes the Div; the two leaves follow it.
  const std::size_t at = tree_.leftmost() * tree_.stride();
  std::vector<std::uint64_t>& nodes = tree_.nodes_;
  nodes.insert(nodes.begin() + static_cast<std::ptrdiff_t>(at),
               2 * tree_.stride(), 0);
  nodes[at] = DivTree::kDivNode;
  std::uint64_t* l = nodes.data() + at + tree_.stride();
  std::uint64_t* r = l + tree_.stride();
  l[0] = fall_pc;
  std::copy(fall, fall + words, l + 1);
  r[0] = taken_pc;
  std::copy(taken, taken + words, r + 1);
}

void Warp::check_lane(std::uint32_t lane) const {
  if (lane >= lanes_) throw KernelError("lane beyond the warp width");
}

std::uint64_t* Warp::insert_row(std::size_t dir_pos, std::uint32_t key,
                                std::size_t data_pos, std::size_t words) {
  hash_cache_.invalidate();
  dir_.insert(dir_.begin() + static_cast<std::ptrdiff_t>(dir_pos), key);
  data_.insert(data_.begin() + static_cast<std::ptrdiff_t>(data_pos), words,
               0);
  return data_.data() + data_pos;
}

const std::uint64_t* Warp::find_reg(const ptx::Reg& r) const {
  const auto end = dir_.begin() + n_regs_;
  const auto it = std::lower_bound(dir_.begin(), end, r.key());
  if (it == end || *it != r.key()) return nullptr;
  return data_.data() +
         static_cast<std::size_t>(it - dir_.begin()) * reg_stride();
}

std::uint64_t* Warp::reg_row_for_write(const ptx::Reg& r) {
  hash_cache_.invalidate();
  const auto end = dir_.begin() + n_regs_;
  const auto it = std::lower_bound(dir_.begin(), end, r.key());
  const auto row = static_cast<std::size_t>(it - dir_.begin());
  if (it != end && *it == r.key()) return data_.data() + row * reg_stride();
  ++n_regs_;
  return insert_row(row, r.key(), row * reg_stride(), reg_stride());
}

const std::uint64_t* Warp::find_pred(const ptx::Pred& p) const {
  const auto begin = dir_.begin() + n_regs_;
  const auto it = std::lower_bound(begin, dir_.end(), p.index);
  if (it == dir_.end() || *it != p.index) return nullptr;
  return data_.data() + pred_base() +
         static_cast<std::size_t>(it - begin) * 2 * mask_words();
}

std::uint64_t* Warp::pred_row_for_write(const ptx::Pred& p) {
  hash_cache_.invalidate();
  const auto begin = dir_.begin() + n_regs_;
  const auto it = std::lower_bound(begin, dir_.end(), p.index);
  const std::size_t at =
      pred_base() + static_cast<std::size_t>(it - begin) * 2 * mask_words();
  if (it != dir_.end() && *it == p.index) return data_.data() + at;
  return insert_row(static_cast<std::size_t>(it - dir_.begin()), p.index, at,
                    2 * mask_words());
}

std::optional<std::uint64_t> Warp::read_opt(std::uint32_t lane,
                                            const ptx::Reg& r) const {
  check_lane(lane);
  const std::uint64_t* row = find_reg(r);
  if (row == nullptr || !lane_set(row + lanes_, lane)) return std::nullopt;
  return row[lane];
}

void Warp::write(std::uint32_t lane, const ptx::Reg& r, std::uint64_t value) {
  check_lane(lane);
  std::uint64_t* row = reg_row_for_write(r);
  row[lane] = truncate(value, r.width);
  row[lanes_ + lane / 64] |= 1ull << (lane % 64);
}

bool Warp::pred(std::uint32_t lane, const ptx::Pred& p) const {
  check_lane(lane);
  const std::uint64_t* row = find_pred(p);
  return row != nullptr && lane_set(row, lane);
}

void Warp::write_pred(std::uint32_t lane, const ptx::Pred& p, bool value) {
  check_lane(lane);
  std::uint64_t* row = pred_row_for_write(p);
  const std::uint64_t bit = 1ull << (lane % 64);
  row[lane / 64] = value ? row[lane / 64] | bit : row[lane / 64] & ~bit;
  row[mask_words() + lane / 64] |= bit;
}

bool Warp::operator==(const Warp& o) const {
  return first_tid_ == o.first_tid_ && lanes_ == o.lanes_ &&
         n_regs_ == o.n_regs_ && dir_ == o.dir_ && data_ == o.data_ &&
         tree_ == o.tree_;
}

std::uint64_t Warp::hash() const {
  return hash_cache_.get_or([&] {
    Hasher h;
    h.mix(first_tid_).mix(lanes_).mix(n_regs_).mix(dir_.size());
    h.mix(tree_.nodes_.size());
    h.mix_words(dir_.data(), dir_.size() * sizeof(std::uint32_t));
    h.mix_words(data_.data(), data_.size() * sizeof(std::uint64_t));
    h.mix_words(tree_.nodes_.data(),
                tree_.nodes_.size() * sizeof(std::uint64_t));
    return h.value();
  });
}

std::uint64_t Warp::deep_bytes() const {
  return sizeof(Warp) + dir_.capacity() * sizeof(std::uint32_t) +
         (data_.capacity() + tree_.nodes_.capacity()) * sizeof(std::uint64_t);
}

// --- checkpoint codec (format v4) ----------------------------------------
//
//   u32 first_tid, u32 lanes, u32 #registers, u32 #predicates
//   u32 register keys (ascending), u32 predicate indices (ascending)
//   u64 register rows, then predicate rows (the in-memory layout)
//   u64 #tree nodes, then the nodes' words in preorder

void Warp::encode(support::BinWriter& w) const {
  w.u32(first_tid_);
  w.u32(lanes_);
  w.u32(n_regs_);
  w.u32(static_cast<std::uint32_t>(dir_.size() - n_regs_));
  w.words(dir_.data(), dir_.size());
  w.words(data_.data(), data_.size());
  w.u64(tree_.node_count());
  w.words(tree_.nodes_.data(), tree_.nodes_.size());
}

Warp Warp::decode(support::BinReader& r) {
  // Read the words as they stand, then rebuild the warp through the
  // mutators, which only ever produce canonical state; the input was
  // canonical exactly when the rebuilt warp equals it.
  Warp raw;
  raw.first_tid_ = r.u32();
  raw.lanes_ = r.u32();
  raw.n_regs_ = r.u32();
  const std::uint32_t n_preds = r.u32();
  if (raw.lanes_ == 0) throw support::BinError("warp without lanes");
  const std::size_t words = sem::mask_words(raw.lanes_);
  raw.tree_ = DivTree(words);
  const auto read_words = [&](auto& v, std::uint64_t n, std::uint64_t per) {
    using T = typename std::decay_t<decltype(v)>::value_type;
    if (per != 0 && n > r.remaining() / sizeof(T) / per) {
      throw support::BinError("implausible warp size in binary input");
    }
    v.resize(v.size() + n * per);
    r.words(v.data() + v.size() - n * per, n * per);
  };
  read_words(raw.dir_, std::uint64_t{raw.n_regs_} + n_preds, 1);
  read_words(raw.data_, raw.n_regs_, raw.reg_stride());
  read_words(raw.data_, n_preds, 2 * words);
  read_words(raw.tree_.nodes_, r.u64(), raw.tree_.stride());

  Warp w(raw.first_tid_, raw.lanes_);
  for (std::size_t k = 0; k < raw.dir_.size(); ++k) {
    const std::uint32_t key = raw.dir_[k];
    if (k < raw.n_regs_) {
      const ptx::Reg reg{static_cast<ptx::TypeClass>(key >> 24),
                         static_cast<std::uint8_t>(key >> 16),
                         static_cast<std::uint16_t>(key)};
      if (!is_valid_width(reg.width)) {
        throw support::BinError("register key with an invalid width");
      }
      const std::uint64_t* row = raw.data_.data() + k * raw.reg_stride();
      for (std::uint32_t l = 0; l < raw.lanes_; ++l) {
        if (lane_set(row + raw.lanes_, l)) w.write(l, reg, row[l]);
      }
    } else {
      const std::uint64_t* row =
          raw.data_.data() + raw.pred_base() + (k - raw.n_regs_) * 2 * words;
      for (std::uint32_t l = 0; l < raw.lanes_; ++l) {
        if (lane_set(row + words, l)) {
          w.write_pred(l, {static_cast<std::uint16_t>(key)}, lane_set(row, l));
        }
      }
    }
  }
  // The tree: a well-formed preorder no deeper than 64 (one level per
  // lane is the most a warp can diverge) of nonempty leaves.
  DivTree tree(words);
  std::vector<std::uint8_t> open;  // per open Div: children still due
  const DivTree& t = raw.tree_;
  for (std::size_t n = 0; n < t.node_count(); ++n) {
    if ((n != 0 && open.empty()) || open.size() >= 64) {
      throw support::BinError("malformed warp tree");
    }
    if (t.is_div(n)) {
      tree.push_div();
      open.push_back(2);
      continue;
    }
    if (t.leaf_empty(n)) throw support::BinError("empty warp tree leaf");
    tree.push_leaf(t.leaf_pc(n), t.leaf_mask(n));
    while (!open.empty() && --open.back() == 0) open.pop_back();
  }
  if (!open.empty() || t.node_count() == 0) {
    throw support::BinError("malformed warp tree");
  }
  try {
    w.set_tree(std::move(tree));
  } catch (const KernelError& e) {
    throw support::BinError(e.what());
  }
  if (!(w == raw)) throw support::BinError("warp encoding is not canonical");
  return w;
}

Warp sync_warp(Warp w) {
  w.hash_cache_.invalidate();
  w.tree_ = w.tree_.sync();
  return w;
}

}  // namespace cac::sem
