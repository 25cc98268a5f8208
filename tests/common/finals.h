// Test helper: an exploration's final states, materialized in
// final_ids order.
#pragma once

#include <vector>

#include "sched/explore.h"

namespace cac {

inline std::vector<sem::Machine> finals_of(const sched::ExploreResult& r) {
  std::vector<sem::Machine> out;
  out.reserve(r.final_ids.size());
  for (const sched::StateId id : r.final_ids) {
    out.push_back(r.store->materialize(id));
  }
  return out;
}

}  // namespace cac
