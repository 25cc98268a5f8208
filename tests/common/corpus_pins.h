// Test helper: the corpus kernels at the small launches whose state
// identity Explore.StateIdentityPinnedOnCorpusKernels pins, shared with
// the successor-cache differential test.
#pragma once

#include <cstdint>
#include <string>

#include "programs/corpus.h"
#include "sem/launch.h"

namespace cac {

inline std::string pin_source(const std::string& kernel) {
  if (kernel == "add_vector") return programs::vector_add_ptx();
  if (kernel == "xor_cipher") return programs::xor_cipher_ptx();
  if (kernel == "saxpy") return programs::saxpy_ptx();
  if (kernel == "reduce") return programs::reduce_shared_ptx();
  if (kernel == "scan_prefix") return programs::scan_prefix_ptx();
  if (kernel == "atomic_sum") return programs::atomic_sum_ptx();
  return programs::histogram_ptx();
}

inline sem::LaunchSpec pin_launch(const std::string& kernel) {
  sem::LaunchSpec s;
  s.global_bytes = 256;
  s.shared_bytes = 64;
  s.block = {4, 1, 1};
  s.warp_size = 2;
  const auto fill = [&](std::uint64_t base, std::uint32_t n,
                        std::uint32_t mul) {
    for (std::uint32_t i = 0; i < n; ++i) {
      s.inits.emplace_back(base + 4 * i, mul * i + 1);
    }
  };
  if (kernel == "add_vector" || kernel == "xor_cipher") {
    s.block = {6, 1, 1};
    s.warp_size = 3;
    s.params = {{"arr_A", 0}, {"arr_B", 64}, {"arr_C", 128}, {"size", 5}};
    fill(0, 5, 3);
    fill(64, 5, 7);
  } else if (kernel == "saxpy") {
    s.block = {6, 1, 1};
    s.warp_size = 3;
    s.params = {{"arr_X", 0}, {"arr_Y", 64}, {"a", 3}, {"size", 5}};
    fill(0, 5, 3);
    fill(64, 5, 7);
  } else if (kernel == "reduce" || kernel == "scan_prefix") {
    s.params = {{"arr_A", 0}, {"out", 128}};
    fill(0, 4, 5);
  } else if (kernel == "atomic_sum") {
    s.grid = {2, 1, 1};
    s.block = {2, 1, 1};
    s.params = {{"arr_A", 0}, {"out", 128}, {"size", 4}};
    fill(0, 4, 5);
    s.inits.emplace_back(128, 0);
  } else {  // histogram
    s.params = {{"data", 0}, {"hist", 128}, {"size", 4}, {"mask", 3}};
    fill(0, 4, 0x01010101);
    for (std::uint32_t b = 0; b < 4; ++b) s.inits.emplace_back(128 + 4 * b, 0);
  }
  return s;
}

}  // namespace cac
