#include "check/validate.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "programs/corpus.h"
#include "ptx/lower.h"
#include "sem/launch.h"

namespace cac::check {
namespace {

using programs::VecAddLayout;

ValidationReport validate_vecadd(std::uint32_t size,
                                 ValidateOptions opts = {}) {
  const ptx::Program prg = programs::vector_add_listing2();
  const VecAddLayout L;
  const sem::KernelConfig kc{{1, 1, 1}, {4, 1, 1}, 2};
  sem::Launch launch(prg, kc, mem::MemSizes{L.global_bytes, 0, 0, 0, 1});
  launch.param("arr_A", L.a).param("arr_B", L.b).param("arr_C", L.c)
      .param("size", size);
  Spec post;
  for (std::uint32_t i = 0; i < size; ++i) {
    launch.global_u32(L.a + 4 * i, i);
    launch.global_u32(L.b + 4 * i, i);
    post.mem_u32(mem::Space::Global, L.c + 4 * i, 2 * i);
  }
  opts.model.explore.partial_order_reduction = true;
  return validate(prg, kc, launch.machine(), post, opts);
}

TEST(Validate, VectorAddPassesEverything) {
  const ValidationReport r = validate_vecadd(4);
  EXPECT_TRUE(r.model.proved()) << r.model.detail;
  EXPECT_FALSE(r.races.racy());
  EXPECT_TRUE(r.transparency.holds) << r.transparency.detail;
  EXPECT_TRUE(r.lane_order.independent);
  EXPECT_TRUE(r.all_passed());
  const std::string t = r.text();
  EXPECT_NE(t.find("VERDICT: validated"), std::string::npos) << t;
  EXPECT_NE(t.find("[PASS] model-check"), std::string::npos);
  EXPECT_NE(t.find("grid steps"), std::string::npos);  // profile section
}

TEST(Validate, ProgressNeverRestarts) {
  // The model check's exploration also decides scheduler transparency,
  // so validate explores once and the progress a client sees only
  // grows, ending at or below the final state count.
  std::vector<std::uint64_t> seen;
  ValidateOptions opts;
  opts.model.explore.progress_every_states = 8;
  opts.model.explore.progress_fn =
      [&](const sched::ExploreOptions::Progress& p) {
        seen.push_back(p.states_visited);
      };
  const ValidationReport r = validate_vecadd(4, opts);
  ASSERT_TRUE(r.all_passed()) << r.text();
  ASSERT_FALSE(seen.empty());
  EXPECT_TRUE(std::is_sorted(seen.begin(), seen.end()));
  EXPECT_LE(seen.back(), r.model.exploration.states_visited);
}

TEST(Validate, BuggyReductionFailsWithDetails) {
  const ptx::Program prg =
      ptx::load_ptx(programs::reduce_shared_nobar_ptx()).kernel("reduce");
  const sem::KernelConfig kc{{1, 1, 1}, {4, 1, 1}, 2};
  sem::Launch launch(prg, kc, mem::MemSizes{64, 0, 256, 0, 1});
  launch.param("arr_A", 0).param("out", 32);
  for (std::uint32_t i = 0; i < 4; ++i) launch.global_u32(4 * i, i + 1);
  const ValidationReport r =
      validate(prg, kc, launch.machine(), Spec{}, {});
  EXPECT_FALSE(r.all_passed());
  EXPECT_TRUE(r.races.racy());
  EXPECT_FALSE(r.transparency.holds);
  const std::string t = r.text();
  EXPECT_NE(t.find("VERDICT: NOT validated"), std::string::npos) << t;
  EXPECT_NE(t.find("[FAIL]"), std::string::npos);
}

TEST(Validate, ChecksCanBeDisabled) {
  ValidateOptions opts;
  opts.check_transparency = false;
  opts.check_lane_order = false;
  opts.check_races = false;
  opts.collect_profile = false;
  const ptx::Program prg = programs::straightline_program(3);
  const sem::KernelConfig kc{{1, 1, 1}, {2, 1, 1}, 2};
  const sem::Machine m = sem::Launch(prg, kc, mem::MemSizes{}).machine();
  const ValidationReport r = validate(prg, kc, m, Spec{}, opts);
  EXPECT_TRUE(r.all_passed());
  const std::string t = r.text();
  EXPECT_EQ(t.find("scheduler-transparency"), std::string::npos);
  EXPECT_EQ(t.find("grid steps"), std::string::npos);
}

TEST(Validate, DeadlockReportedByModelCheck) {
  const ptx::Program prg = ptx::load_ptx(programs::barrier_divergence_ptx())
                               .kernel("barrier_divergence");
  const sem::KernelConfig kc{{1, 1, 1}, {2, 1, 1}, 2};
  const sem::Machine m = sem::Launch(prg, kc, mem::MemSizes{}).machine();
  ValidateOptions opts;
  opts.check_lane_order = false;  // would also fail; isolate the model
  const ValidationReport r = validate(prg, kc, m, Spec{}, opts);
  EXPECT_FALSE(r.all_passed());
  EXPECT_EQ(r.model.kind, Verdict::Kind::Refuted);
  EXPECT_NE(r.model.detail.find("stuck"), std::string::npos);
}

}  // namespace
}  // namespace cac::check
