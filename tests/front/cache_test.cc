// The content-addressed verdict cache: key canonicalization (what is
// and is not part of a verdict's identity), the cacheability rule, and
// the bounded LRU with disk persistence.
#include "front/cache.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>

#include "support/fault.h"

namespace cac::front {
namespace {

const char* kVecAdd = R"(
.version 6.0
.target sm_30
.address_size 64
.visible .entry k(
  .param .u64 out
)
{
  .reg .u32 %r<3>;
  .reg .u64 %rd<2>;
  ld.param.u64 %rd1, [out];
  mov.u32 %r1, %tid.x;
  st.global.u32 [%rd1], %r1;
  ret;
}
)";

CheckRequest base_request() {
  CheckRequest r;
  r.file = "a.ptx";
  r.source = kVecAdd;
  r.launch.block = {2, 1, 1};
  r.launch.warp_size = 1;
  r.launch.global_bytes = 64;
  r.launch.params.emplace_back("out", 0);
  return r;
}

TEST(CacheKey, StableAcrossCalls) {
  const CheckRequest r = base_request();
  EXPECT_EQ(cache_key(r), cache_key(r));
  EXPECT_EQ(cache_key(r).hex().size(), 32u);
}

TEST(CacheKey, WhitespaceAndCommentsWashOut) {
  CheckRequest a = base_request();
  CheckRequest b = base_request();
  b.source = std::string("// a comment\n") + kVecAdd + "\n\n  \n";
  b.file = "same-kernel-different-file.ptx";  // display name is not content
  EXPECT_EQ(cache_key(Request{a}), cache_key(Request{b}));
}

TEST(CacheKey, TransientOptionsExcluded) {
  CheckRequest a = base_request();
  CheckRequest b = base_request();
  b.explore.num_threads = 8;
  b.explore.deadline_ms = 1234;
  b.explore.mem_limit_bytes = 1u << 30;
  b.explore.checkpoint_path = "/tmp/x.ckpt";
  b.explore.checkpoint_every_states = 17;
  b.explore.store_resident_budget_bytes = 4096;
  EXPECT_EQ(cache_key(Request{a}), cache_key(Request{b}));
}

TEST(CacheKey, StructuralOptionsIncluded) {
  const CheckRequest a = base_request();
  CheckRequest b = base_request();
  b.explore.max_states = 7;
  EXPECT_NE(cache_key(Request{a}), cache_key(Request{b}));

  CheckRequest c = base_request();
  c.explore.partial_order_reduction = true;
  EXPECT_NE(cache_key(Request{a}), cache_key(Request{c}));

  CheckRequest d = base_request();
  d.expects.emplace_back(0, 1);
  EXPECT_NE(cache_key(Request{a}), cache_key(Request{d}));

  CheckRequest e = base_request();
  e.full_validate = true;
  EXPECT_NE(cache_key(Request{a}), cache_key(Request{e}));

  CheckRequest f = base_request();
  f.launch.block = {3, 1, 1};
  EXPECT_NE(cache_key(Request{a}), cache_key(Request{f}));
}

TEST(CacheKey, LintPerfIsStructural) {
  // The perf passes change what the verdict contains, so `--perf` is
  // part of a lint verdict's identity; display names and formatting
  // still wash out.
  LintRequest a;
  a.file = "a.ptx";
  a.source = kVecAdd;
  LintRequest b = a;
  b.perf = true;
  EXPECT_NE(cache_key(Request{a}), cache_key(Request{b}));

  LintRequest c = b;
  c.file = "renamed.ptx";
  c.source = std::string("// comment\n") + kVecAdd + "\n";
  EXPECT_EQ(cache_key(Request{b}), cache_key(Request{c}));

  LintRequest d = a;
  d.races = false;
  EXPECT_NE(cache_key(Request{a}), cache_key(Request{d}));
}

TEST(CacheKey, KernelSourceIsContent) {
  const CheckRequest a = base_request();
  CheckRequest b = base_request();
  std::string changed = kVecAdd;
  const auto at = changed.find("%tid.x");
  ASSERT_NE(at, std::string::npos);
  changed.replace(at, 6, "%ctaid.x");
  b.source = changed;
  EXPECT_NE(cache_key(Request{a}), cache_key(Request{b}));
}

TEST(CacheKey, MalformedSourceThrows) {
  CheckRequest r = base_request();
  r.source = "this is not ptx";
  EXPECT_THROW(cache_key(Request{r}), PtxError);
}

Result explored_result(const std::string& limit) {
  Result r;
  r.command = "check";
  r.stats.have_explore = true;
  r.stats.limit_hit = limit;
  r.stats.exhaustive = limit == "none";
  return r;
}

TEST(Cacheable, DeterministicOutcomesOnly) {
  EXPECT_TRUE(cacheable({explored_result("none")}));
  EXPECT_TRUE(cacheable({explored_result("max-states")}));
  EXPECT_TRUE(cacheable({explored_result("max-depth")}));
  EXPECT_FALSE(cacheable({explored_result("deadline")}));
  EXPECT_FALSE(cacheable({explored_result("mem-limit")}));
  EXPECT_FALSE(cacheable({explored_result("interrupted")}));
  EXPECT_FALSE(cacheable({}));

  Result lint;  // no exploration block: always deterministic
  lint.command = "lint";
  EXPECT_TRUE(cacheable({lint}));
}

CacheKey key_of(std::uint64_t n) {
  CacheKey k;
  k.hi = n;
  k.lo = ~n;
  return k;
}

VerdictCache::Entry entry_of(int code, const std::string& body) {
  VerdictCache::Entry e;
  e.exit_code = code;
  e.results_json = body;
  return e;
}

TEST(VerdictCache, HitReturnsVerbatimPayload) {
  VerdictCache cache;
  const std::string body = R"([{"verdict":"proved","exit_code":0}])";
  cache.put(key_of(1), entry_of(0, body));
  const auto hit = cache.get(key_of(1));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->results_json, body);
  EXPECT_EQ(hit->exit_code, 0);
  EXPECT_FALSE(cache.get(key_of(2)).has_value());
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(VerdictCache, EvictsLeastRecentlyUsedByEntryCount) {
  VerdictCache::Options opts;
  opts.max_entries = 2;
  VerdictCache cache(opts);
  cache.put(key_of(1), entry_of(0, "[1]"));
  cache.put(key_of(2), entry_of(0, "[2]"));
  ASSERT_TRUE(cache.get(key_of(1)).has_value());  // refresh 1
  cache.put(key_of(3), entry_of(0, "[3]"));       // evicts 2
  EXPECT_TRUE(cache.get(key_of(1)).has_value());
  EXPECT_FALSE(cache.get(key_of(2)).has_value());
  EXPECT_TRUE(cache.get(key_of(3)).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(VerdictCache, EvictsByPayloadBytes) {
  VerdictCache::Options opts;
  opts.max_bytes = 10;
  VerdictCache cache(opts);
  cache.put(key_of(1), entry_of(0, "12345678"));  // 8 bytes
  cache.put(key_of(2), entry_of(0, "12345678"));  // 16 > 10: evict 1
  EXPECT_FALSE(cache.get(key_of(1)).has_value());
  EXPECT_TRUE(cache.get(key_of(2)).has_value());
}

TEST(VerdictCache, PersistsAcrossInstances) {
  const std::string dir =
      std::filesystem::temp_directory_path() / "cac_cache_test_persist";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  VerdictCache::Options opts;
  opts.dir = dir;
  const std::string body = R"([{"verdict":"refuted","exit_code":1}])";
  {
    VerdictCache cache(opts);
    cache.put(key_of(9), entry_of(1, body));
  }
  VerdictCache fresh(opts);
  const auto hit = fresh.get(key_of(9));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->results_json, body);  // byte-for-byte replay
  EXPECT_EQ(hit->exit_code, 1);
  EXPECT_EQ(fresh.stats().disk_hits, 1u);
  std::filesystem::remove_all(dir);
}

TEST(VerdictCache, EvictionRemovesThePersistedFile) {
  // The directory is bounded by the LRU too: an evicted verdict's file
  // goes with it.
  const std::string dir = std::filesystem::temp_directory_path() /
                          ("cac_cache_test_evict_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  VerdictCache::Options opts;
  opts.dir = dir;
  opts.max_entries = 2;
  {
    VerdictCache cache(opts);
    cache.put(key_of(1), entry_of(0, "[1]"));
    cache.put(key_of(2), entry_of(0, "[2]"));
    cache.put(key_of(3), entry_of(0, "[3]"));  // evicts 1
    EXPECT_EQ(cache.stats().evictions, 1u);
  }
  std::set<std::string> files;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    files.insert(e.path().filename().string());
  }
  EXPECT_EQ(files, (std::set<std::string>{key_of(2).hex() + ".json",
                                          key_of(3).hex() + ".json"}));
  VerdictCache fresh(opts);
  EXPECT_TRUE(fresh.get(key_of(2)).has_value());
  EXPECT_TRUE(fresh.get(key_of(3)).has_value());
  EXPECT_FALSE(fresh.get(key_of(1)).has_value());
  EXPECT_EQ(fresh.stats().disk_hits, 2u);
  EXPECT_EQ(fresh.stats().misses, 1u);
  std::filesystem::remove_all(dir);
}

TEST(VerdictCache, CorruptDiskFileIsAMiss) {
  const std::string dir =
      std::filesystem::temp_directory_path() / "cac_cache_test_corrupt";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  VerdictCache::Options opts;
  opts.dir = dir;
  VerdictCache cache(opts);
  {
    std::ofstream out(dir + "/" + key_of(5).hex() + ".json");
    out << "{\"exit_code\":1,\"resul";  // torn write
  }
  EXPECT_FALSE(cache.get(key_of(5)).has_value());
  std::filesystem::remove_all(dir);
}

TEST(VerdictCache, PersistFailureKeepsEntryResident) {
  // ENOSPC on the cache's disk tier costs durability, not the verdict:
  // the entry stays served from memory and the failure is counted.
  const std::string dir =
      std::filesystem::temp_directory_path() / "cac_cache_test_enospc";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  VerdictCache::Options opts;
  opts.dir = dir;
  VerdictCache cache(opts);
  const std::string body = R"([{"verdict":"proved","exit_code":0}])";
  {
    support::ScopedFaultPlan plan("op=write,path=*.json,every=1,err=ENOSPC");
    cache.put(key_of(3), entry_of(0, body));
  }
  EXPECT_EQ(cache.stats().persist_failures, 1u);
  const auto hit = cache.get(key_of(3));
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->results_json, body);
  // Nothing (and no .tmp litter) landed on disk.
  std::size_t files = 0;
  for (const auto& e : std::filesystem::directory_iterator(dir)) {
    (void)e;
    ++files;
  }
  EXPECT_EQ(files, 0u);
  std::filesystem::remove_all(dir);
}

TEST(VerdictCache, DiskReadFaultIsAMissNotACrash) {
  const std::string dir =
      std::filesystem::temp_directory_path() / "cac_cache_test_eio";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  VerdictCache::Options opts;
  opts.dir = dir;
  {
    VerdictCache writer(opts);
    writer.put(key_of(7), entry_of(1, "[7]"));
  }
  VerdictCache fresh(opts);
  {
    support::ScopedFaultPlan plan("op=open,path=*.json,every=1,err=EIO");
    EXPECT_FALSE(fresh.get(key_of(7)).has_value());
  }
  // Seam off, the same file reads fine — the fault was transient.
  EXPECT_TRUE(fresh.get(key_of(7)).has_value());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace cac::front
