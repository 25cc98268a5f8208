// Test helper: a machine equal to `m` that shares no warp or bank object
// with it and carries no memoized hash, so nothing can match it by
// pointer and every hash it reports is computed afresh.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "sem/state.h"
#include "support/binio.h"

namespace cac {

inline sem::Machine fresh_copy(const sem::Machine& m) {
  sem::Machine out;
  for (const sem::Block& b : m.grid.blocks) {
    sem::Block& copy = out.grid.blocks.emplace_back();
    for (const sem::WarpRef& w : b.warps) {
      support::BinWriter bw;
      w->encode(bw);
      support::BinReader br(bw.buffer());
      copy.warps.push_back(std::make_shared<sem::Warp>(sem::Warp::decode(br)));
    }
  }
  const auto fresh = [](const mem::Memory::BankRef& b) {
    return std::make_shared<mem::Memory::Bank>(*b);
  };
  std::vector<mem::Memory::BankRef> shared;
  for (const mem::Memory::BankRef& b : m.memory.shared_bank_refs()) {
    shared.push_back(fresh(b));
  }
  out.memory = mem::Memory::from_banks(
      fresh(m.memory.bank_ref(mem::Space::Global)),
      fresh(m.memory.bank_ref(mem::Space::Const)), std::move(shared),
      fresh(m.memory.bank_ref(mem::Space::Param)), m.memory.shared_size());
  return out;
}

}  // namespace cac
