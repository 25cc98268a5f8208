#include "sem/state.h"

#include "support/diag.h"

namespace cac::sem {

void Block::mix_hash(Hasher& h) const {
  h.mix(warps.size());
  for (const Warp& w : warps) h.mix(w.hash());
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
      blk.warps.push_back(make_warp(linear_tid(kc, b, t), n));
    }
  }
  return g;
}

std::string to_string(const Grid& g) {
  std::string out;
  for (std::size_t b = 0; b < g.blocks.size(); ++b) {
    out += "block " + std::to_string(b) + ":";
    for (const Warp& w : g.blocks[b].warps) out += " " + w.shape();
    out += "\n";
  }
  return out;
}

}  // namespace cac::sem
