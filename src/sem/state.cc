#include "sem/state.h"

#include <algorithm>

#include "support/diag.h"

namespace cac::sem {

Warp& unique_warp(WarpRef& slot) {
  if (slot.use_count() != 1) slot = std::make_shared<Warp>(*slot);
  // The warp is uniquely ours now, and no warp is created const (every
  // handle comes from std::make_shared<Warp>), so shedding const is
  // safe.
  return const_cast<Warp&>(*slot);
}

bool operator==(const Block& a, const Block& b) {
  return std::equal(a.warps.begin(), a.warps.end(), b.warps.begin(),
                    b.warps.end(), [](const WarpRef& x, const WarpRef& y) {
                      return x == y || *x == *y;
                    });
}

void Block::mix_hash(Hasher& h) const {
  h.mix(warps.size());
  for (const WarpRef& w : warps) h.mix(w->hash());
}

void Grid::mix_hash(Hasher& h) const {
  h.mix(blocks.size());
  for (const Block& b : blocks) b.mix_hash(h);
}

std::uint64_t Grid::hash() const {
  Hasher h;
  mix_hash(h);
  return h.value();
}

std::uint64_t Machine::hash() const {
  return hash_cache.get_or([&] {
    Hasher h;
    grid.mix_hash(h);
    h.mix(memory.hash());
    return h.value();
  });
}

Grid generate_grid(const KernelConfig& kc) {
  if (kc.warp_size == 0) throw KernelError("warp size must be at least 1");
  Grid g;
  g.blocks.resize(kc.num_blocks());
  const std::uint32_t tpb = kc.threads_per_block();
  for (std::uint32_t b = 0; b < kc.num_blocks(); ++b) {
    Block& blk = g.blocks[b];
    std::uint32_t n = 0;
    for (std::uint32_t t = 0; t < tpb; t += n) {
      n = std::min(kc.warp_size, tpb - t);
      blk.warps.push_back(
          std::make_shared<Warp>(make_warp(linear_tid(kc, b, t), n)));
    }
  }
  return g;
}

std::string to_string(const Grid& g) {
  std::string out;
  for (std::size_t b = 0; b < g.blocks.size(); ++b) {
    out += "block " + std::to_string(b) + ":";
    for (const WarpRef& w : g.blocks[b].warps) out += " " + w->shape();
    out += "\n";
  }
  return out;
}

}  // namespace cac::sem
