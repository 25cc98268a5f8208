// Crash-safe exploration: checkpoint format, resource budgets, and
// resume equivalence.
//
// The contract under test (docs/explorer.md "Checkpoint/resume"):
//
//  * a StateStore round-trips through encode/decode with every
//    fragment and state id preserved;
//  * a run interrupted at ANY point and resumed from its checkpoint
//    reaches a verdict byte-identical to the uninterrupted run, with
//    and without POR;
//  * budgets (deadline, RSS watermark, stop flag) end a run gracefully
//    with the precise limit reported and a final checkpoint written;
//  * corrupt checkpoint files — truncated, bit-flipped, version-skewed
//    — are rejected with a structured CheckpointError, never a crash,
//    and never a silently wrong verdict; the last good checkpoint
//    stays usable.
#include "sched/checkpoint.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/finals.h"
#include "programs/corpus.h"
#include "ptx/lower.h"
#include "sched/explore.h"
#include "sem/launch.h"
#include "support/binio.h"

namespace cac::sched {
namespace {

using namespace cac::ptx;

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "cac_ckpt_" + name;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

void expect_identical(const ExploreResult& a, const ExploreResult& b,
                      const std::string& what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.exhaustive, b.exhaustive);
  EXPECT_EQ(a.states_visited, b.states_visited);
  EXPECT_EQ(a.transitions, b.transitions);
  EXPECT_EQ(a.min_steps_to_termination, b.min_steps_to_termination);
  EXPECT_EQ(a.max_steps_to_termination, b.max_steps_to_termination);
  EXPECT_EQ(a.limit_hit, b.limit_hit);
  ASSERT_EQ(a.final_ids.size(), b.final_ids.size());
  const std::vector<sem::Machine> af = finals_of(a);
  const std::vector<sem::Machine> bf = finals_of(b);
  for (std::size_t i = 0; i < af.size(); ++i) {
    EXPECT_EQ(af[i], bf[i]) << "finals[" << i << "]";
  }
  ASSERT_EQ(a.violations.size(), b.violations.size());
  for (std::size_t i = 0; i < a.violations.size(); ++i) {
    EXPECT_EQ(a.violations[i].kind, b.violations[i].kind);
    EXPECT_EQ(a.violations[i].message, b.violations[i].message);
    EXPECT_EQ(a.violations[i].trace, b.violations[i].trace);
  }
}

/// The dense interleaving lattice: plenty of states, no violations.
struct Lattice {
  ptx::Program prg;
  sem::KernelConfig kc;
  sem::Machine init;

  explicit Lattice(std::uint32_t instrs, std::uint32_t threads = 8)
      : prg(programs::straightline_program(instrs)),
        kc{{1, 1, 1}, {threads, 1, 1}, 2},
        init(sem::Launch(prg, kc, mem::MemSizes{}).machine()) {}
};

// ---------------------------------------------------------------------
// StateStore codec

TEST(StateStoreCodec, RoundTripPreservesIdsAndContents) {
  const Lattice w(3, 4);
  ExploreOptions opts;
  opts.stop_at_first_violation = false;
  const ExploreResult r = explore(w.prg, w.kc, w.init, opts);
  ASSERT_TRUE(r.exhaustive);
  ASSERT_GT(r.states_visited, 10u);

  support::BinWriter bw;
  r.store->encode(bw);
  support::BinReader br(bw.buffer());
  StateStore copy;
  copy.decode(br);
  EXPECT_TRUE(br.done());

  EXPECT_EQ(copy.size(), r.store->size());
  // Every id must materialize to the same machine with the same
  // memoized hash — id preservation is what makes resume possible.
  for (const StateId id : r.final_ids) {
    EXPECT_EQ(copy.materialize(id), r.store->materialize(id));
    EXPECT_EQ(copy.machine_hash(id), r.store->machine_hash(id));
  }
}

TEST(StateStoreCodec, DecodeIntoNonEmptyStoreThrows) {
  const Lattice w(2, 2);
  const ExploreResult r = explore(w.prg, w.kc, w.init);
  support::BinWriter bw;
  r.store->encode(bw);

  StateStore dirty;
  (void)dirty.intern(w.init);
  support::BinReader br(bw.buffer());
  EXPECT_THROW(dirty.decode(br), KernelError);
}

TEST(StateStoreCodec, DecodeRejectsInconsistentSections) {
  // Hand-built store sections that no encoder writes.  Each must be
  // refused at decode: materialize() would otherwise walk a shape over
  // tuples of another length, or resolve a chain deeper than any
  // writer produces.
  const auto rejects = [](const support::BinWriter& w, const char* why) {
    StateStore store;
    support::BinReader r(w.buffer());
    try {
      store.decode(r);
      ADD_FAILURE() << "decoded a section that should fail with: " << why;
    } catch (const support::BinError& e) {
      EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
          << e.what();
    }
  };
  {
    // One block of one warp makes a tuple of 1 + 0 + 3 ids, not 2.
    support::BinWriter w;
    w.u64(~0ull);  // hash mask
    w.u8(1);       // shaped
    w.u64(1);
    w.u32(1);  // warps_per_block
    w.u32(0);  // shared banks
    w.u64(0);  // shared bytes per block
    w.u32(2);  // tuple length
    w.u64(0);  // warp fragments
    w.u64(0);  // bank fragments
    w.u64(0);  // states
    w.u64(0);  // materialized bytes
    rejects(w, "shape inconsistent");
  }
  {
    // A state without a shape has no tuple to materialize.
    support::BinWriter w;
    w.u64(~0ull);
    w.u8(0);
    w.u64(0);
    w.u64(0);
    w.u64(1);   // one state...
    w.u64(42);  // ...with only its hash
    w.u64(0);
    rejects(w, "no shape");
  }
  {
    // A well-formed delta chain one link longer than the store's bound.
    support::BinWriter w;
    w.u64(~0ull);
    w.u8(0);
    w.u64(10);
    for (std::uint32_t i = 0; i < 10; ++i) {
      w.u64(i);                            // hash
      w.u32(i == 0 ? 0xffffffffu : i - 1);  // base
      w.u8(static_cast<std::uint8_t>(i));  // depth
      w.str("payload");
    }
    w.u64(0);
    w.u64(0);
    w.u64(0);
    rejects(w, "chain depth");
  }
}

// ---------------------------------------------------------------------
// Serial resume: every cut point reaches the uninterrupted verdict.

TEST(CheckpointResume, SerialEveryCutPointByteIdentical) {
  const ptx::Program prg =
      ptx::load_ptx(programs::reduce_shared_ptx()).kernel("reduce");
  const sem::KernelConfig kc{{1, 1, 1}, {4, 1, 1}, 2};
  sem::Launch launch(prg, kc, mem::MemSizes{64, 0, 256, 0, 1});
  launch.param("arr_A", 0).param("out", 32);
  for (std::uint32_t i = 0; i < 4; ++i) launch.global_u32(4 * i, i + 1);
  const sem::Machine init = launch.machine();

  for (const bool por : {false, true}) {
    ExploreOptions base;
    base.partial_order_reduction = por;
    base.stop_at_first_violation = false;
    const ExploreResult full = explore(prg, kc, init, base);
    ASSERT_TRUE(full.exhaustive);

    const std::string path =
        temp_path("serial_cut_" + std::to_string(por));
    // Cut after every k states up to the full size: the checkpoint at
    // each k must resume to the identical verdict.
    for (std::uint64_t k = 1; k <= full.states_visited; k += 7) {
      ExploreOptions cut = base;
      cut.stop_after_states = k;
      cut.checkpoint_path = path;
      const ExploreResult stopped = explore(prg, kc, init, cut);
      ASSERT_EQ(stopped.limit_hit, ExploreResult::Limit::Interrupted);
      ASSERT_TRUE(stopped.checkpointed);

      const Checkpoint ck = Checkpoint::load(path);
      const ExploreResult resumed = explore(prg, kc, init, base, &ck);
      expect_identical(full, resumed,
                       "por=" + std::to_string(por) +
                           " cut=" + std::to_string(k));
    }
    std::remove(path.c_str());
  }
}

TEST(CheckpointResume, SerialResumeReproducesViolations) {
  // A schedule-dependent racy store with faults: interrupt after the
  // first violation was recorded and make sure resumed output keeps it.
  const ptx::Program prg = ptx::load_ptx(programs::barrier_divergence_ptx())
                               .kernel("barrier_divergence");
  const sem::KernelConfig kc{{1, 1, 1}, {4, 1, 1}, 4};
  const sem::Machine init = sem::Launch(prg, kc, mem::MemSizes{}).machine();

  ExploreOptions base;
  base.stop_at_first_violation = false;
  const ExploreResult full = explore(prg, kc, init, base);
  ASSERT_FALSE(full.violations.empty());

  const std::string path = temp_path("serial_viol");
  for (std::uint64_t k = 1; k < full.states_visited; k += 3) {
    ExploreOptions cut = base;
    cut.stop_after_states = k;
    cut.checkpoint_path = path;
    const ExploreResult stopped = explore(prg, kc, init, cut);
    ASSERT_TRUE(stopped.checkpointed);
    const Checkpoint ck = Checkpoint::load(path);
    const ExploreResult resumed = explore(prg, kc, init, base, &ck);
    expect_identical(full, resumed, "cut=" + std::to_string(k));
  }
  std::remove(path.c_str());
}

TEST(CheckpointResume, PeriodicCheckpointResumable) {
  const Lattice w(6);
  ExploreOptions base;
  base.stop_at_first_violation = false;
  const ExploreResult full = explore(w.prg, w.kc, w.init, base);

  const std::string path = temp_path("periodic");
  ExploreOptions opts = base;
  opts.checkpoint_path = path;
  opts.checkpoint_every_states = 64;
  const ExploreResult r = explore(w.prg, w.kc, w.init, opts);
  expect_identical(full, r, "periodic run itself");
  ASSERT_TRUE(r.checkpointed);
  // The last periodic snapshot must resume to the same verdict.
  const Checkpoint ck = Checkpoint::load(path);
  const ExploreResult resumed = explore(w.prg, w.kc, w.init, base, &ck);
  expect_identical(full, resumed, "resume from periodic snapshot");
  std::remove(path.c_str());
}

TEST(CheckpointResume, MidSpillCheckpointResumesByteIdentical) {
  // Tiering is transparent to checkpoints: a run whose store is
  // actively evicting and spilling when the snapshot lands must
  // resume — with the same tier knobs, with different knobs, or with
  // tiering off — to the uninterrupted verdict.  Tier knobs are
  // transient (never in the option fingerprint), so the cross-knob
  // resumes also pin that they don't poison resume validation.
  const Lattice w(10);
  ExploreOptions base;
  base.stop_at_first_violation = false;
  const ExploreResult full = explore(w.prg, w.kc, w.init, base);
  ASSERT_TRUE(full.exhaustive);

  const std::string path = temp_path("mid_spill");
  ExploreOptions cut = base;
  cut.store_spill_dir = testing::TempDir();
  cut.store_resident_budget_bytes = 16 << 10;
  cut.stop_after_states = full.states_visited / 2;
  cut.checkpoint_path = path;
  const ExploreResult stopped = explore(w.prg, w.kc, w.init, cut);
  ASSERT_EQ(stopped.limit_hit, ExploreResult::Limit::Interrupted);
  ASSERT_TRUE(stopped.checkpointed);
  // The snapshot really was taken mid-spill.
  ASSERT_GT(stopped.store_stats.spilled_bytes, 0u);

  struct Variant {
    const char* what;
    std::string spill_dir;
    std::uint64_t budget;
  };
  const Variant variants[] = {
      {"same knobs", testing::TempDir(), 16 << 10},
      {"tighter budget", testing::TempDir(), 4 << 10},
      {"tiering off", "", 0},
  };
  for (const Variant& v : variants) {
    const Checkpoint ck = Checkpoint::load(path);
    ExploreOptions cont = base;
    cont.store_spill_dir = v.spill_dir;
    cont.store_resident_budget_bytes = v.budget;
    const ExploreResult resumed = explore(w.prg, w.kc, w.init, cont, &ck);
    expect_identical(full, resumed, std::string("mid-spill resume, ") +
                                        v.what);
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Budgets: graceful stop with the precise limit and a usable snapshot.

TEST(Budgets, DeadlineStopsSerialRunGracefully) {
  const Lattice w(16);
  const std::string path = temp_path("deadline");
  ExploreOptions opts;
  opts.stop_at_first_violation = false;
  opts.deadline_ms = 1;
  opts.checkpoint_path = path;
  const ExploreResult r = explore(w.prg, w.kc, w.init, opts);
  ASSERT_FALSE(r.exhaustive);
  EXPECT_EQ(r.limit_hit, ExploreResult::Limit::Deadline);
  ASSERT_TRUE(r.checkpointed);

  // Resume without the deadline: must complete and match the
  // uninterrupted run exactly (the transient Deadline reason must not
  // have leaked into the checkpoint).
  ExploreOptions base;
  base.stop_at_first_violation = false;
  const ExploreResult full = explore(w.prg, w.kc, w.init, base);
  const Checkpoint ck = Checkpoint::load(path);
  EXPECT_EQ(ck.verdict.limit_hit, ExploreResult::Limit::None);
  const ExploreResult resumed = explore(w.prg, w.kc, w.init, base, &ck);
  expect_identical(full, resumed, "deadline resume");
  std::remove(path.c_str());
}

TEST(Budgets, MemLimitStopsRunWithPreciseReason) {
  const Lattice w(16);
  ExploreOptions opts;
  opts.stop_at_first_violation = false;
  opts.mem_limit_bytes = 1;  // any real process exceeds one byte of RSS
  if (current_rss_bytes() == 0) GTEST_SKIP() << "no /proc RSS here";
  const ExploreResult r = explore(w.prg, w.kc, w.init, opts);
  ASSERT_FALSE(r.exhaustive);
  EXPECT_EQ(r.limit_hit, ExploreResult::Limit::MemLimit);
}

TEST(Budgets, StopFlagInterruptsTheRun) {
  const Lattice w(12);
  std::atomic<bool> stop{true};  // pre-set: trips on the first poll
  ExploreOptions opts;
  opts.stop_at_first_violation = false;
  opts.stop_flag = &stop;
  const ExploreResult r = explore(w.prg, w.kc, w.init, opts);
  EXPECT_FALSE(r.exhaustive);
  EXPECT_EQ(r.limit_hit, ExploreResult::Limit::Interrupted);
}

// ---------------------------------------------------------------------
// Structured rejection of unusable checkpoints.

class CorruptionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const Lattice w(8, 4);
    // Per-case path: ctest runs each case as its own process, so a
    // fixture-wide name would collide under a parallel ctest.
    path_ = temp_path(std::string("corrupt_") +
                      ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name());
    ExploreOptions opts;
    opts.stop_at_first_violation = false;
    opts.stop_after_states = 10;
    opts.checkpoint_path = path_;
    const ExploreResult r = explore(w.prg, w.kc, w.init, opts);
    ASSERT_TRUE(r.checkpointed);
    good_ = slurp(path_);
    ASSERT_GT(good_.size(), kHeader);
  }
  void TearDown() override { std::remove(path_.c_str()); }

  static constexpr std::size_t kHeader = 32;
  std::string path_;
  std::string good_;
};

TEST_F(CorruptionTest, GoodFileLoads) {
  EXPECT_NO_THROW(Checkpoint::load(path_));
}

TEST_F(CorruptionTest, MissingFileIsIoError) {
  try {
    Checkpoint::load(path_ + ".nope");
    FAIL() << "expected CheckpointError";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointError::Kind::Io);
  }
}

TEST_F(CorruptionTest, EveryTruncationRejectedStructurally) {
  // Every prefix of the file (a crash mid-write of a non-atomic
  // writer, a full disk, a torn copy) must be rejected cleanly.
  for (std::size_t len = 0; len < good_.size();
       len += (len < kHeader ? 1 : 97)) {
    spit(path_, good_.substr(0, len));
    try {
      Checkpoint::load(path_);
      FAIL() << "truncation to " << len << " bytes loaded";
    } catch (const CheckpointError& e) {
      EXPECT_TRUE(e.kind() == CheckpointError::Kind::Corrupt ||
                  e.kind() == CheckpointError::Kind::Io)
          << "len=" << len << ": " << e.what();
    }
  }
}

TEST_F(CorruptionTest, EveryBitFlipRejectedOrHarmless) {
  // Flip one bit at a stride across the whole file.  The payload is
  // checksummed, so any payload flip is caught; header flips hit the
  // magic, version, size, or checksum fields.
  for (std::size_t i = 0; i < good_.size();
       i += (i < kHeader ? 1 : 131)) {
    std::string bad = good_;
    bad[i] = static_cast<char>(bad[i] ^ 0x20);
    spit(path_, bad);
    try {
      Checkpoint::load(path_);
      FAIL() << "bit flip at byte " << i << " loaded";
    } catch (const CheckpointError&) {
      // Structured rejection: exactly what the contract requires.
    }
  }
}

TEST_F(CorruptionTest, VersionSkewReportedAsVersionMismatch) {
  std::string bad = good_;
  // Header version field; the checksum covers payload only.
  bad[8] = static_cast<char>(Checkpoint::kFormatVersion + 1);
  spit(path_, bad);
  try {
    Checkpoint::load(path_);
    FAIL() << "version-skewed file loaded";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointError::Kind::VersionMismatch);
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST_F(CorruptionTest, V2FilesRejectedWithVersionMismatch) {
  // Format v3 changed the embedded store payload (per-warp-record
  // tier metadata for delta chains), so a v2 file from an older build
  // must be refused outright — decoding its payload with the v3
  // layout would misread fragment records.
  std::string bad = good_;
  bad[8] = 2;  // header version field; the checksum covers payload only
  spit(path_, bad);
  try {
    Checkpoint::load(path_);
    FAIL() << "v2 file loaded by a v" << Checkpoint::kFormatVersion
           << " reader";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointError::Kind::VersionMismatch);
    EXPECT_NE(std::string(e.what()).find("version 2"), std::string::npos)
        << e.what();
  }
}

TEST_F(CorruptionTest, V3FilesRejectedWithVersionMismatch) {
  // Format v4 stores warp fragments in the dense per-warp encoding
  // (register and predicate rows, a preorder lane-mask tree); a v3
  // file's warps hold per-thread register maps and must be refused,
  // not misdecoded.
  std::string bad = good_;
  bad[8] = 3;  // header version field; the checksum covers payload only
  spit(path_, bad);
  try {
    Checkpoint::load(path_);
    FAIL() << "v3 file loaded by a v" << Checkpoint::kFormatVersion
           << " reader";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointError::Kind::VersionMismatch);
    EXPECT_NE(std::string(e.what()).find("version 3"), std::string::npos)
        << e.what();
  }
}

TEST_F(CorruptionTest, V4FilesRejectedWithVersionMismatch) {
  // Format v5 writes the parallel section's nodes in the shared graph
  // codec, whose edges carry a 64-bit child; a v4 file's 32-bit
  // children must be refused, not misdecoded.
  std::string bad = good_;
  bad[8] = 4;  // header version field; the checksum covers payload only
  spit(path_, bad);
  try {
    Checkpoint::load(path_);
    FAIL() << "v4 file loaded by a v" << Checkpoint::kFormatVersion
           << " reader";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointError::Kind::VersionMismatch);
    EXPECT_NE(std::string(e.what()).find("version 4"), std::string::npos)
        << e.what();
  }
}

TEST_F(CorruptionTest, V5FilesRejectedWithVersionMismatch) {
  // Format v6 drops the engine tag that led a v5 payload, so a v5
  // file's first payload byte would be misread as a fingerprint byte;
  // it must be refused, not misdecoded.
  std::string bad = good_;
  bad[8] = 5;  // header version field; the checksum covers payload only
  spit(path_, bad);
  try {
    Checkpoint::load(path_);
    FAIL() << "v5 file loaded by a v" << Checkpoint::kFormatVersion
           << " reader";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointError::Kind::VersionMismatch);
    EXPECT_NE(std::string(e.what()).find("version 5"), std::string::npos)
        << e.what();
  }
}

TEST_F(CorruptionTest, V6FilesRejectedWithVersionMismatch) {
  // Format v7 drops the v6 store section's shard counts, per-state
  // stride words and four trailing counters, so a v6 file's store
  // section would be misread from its first pool on; it must be
  // refused, not misdecoded.
  std::string bad = good_;
  bad[8] = 6;  // header version field; the checksum covers payload only
  spit(path_, bad);
  try {
    Checkpoint::load(path_);
    FAIL() << "v6 file loaded by a v" << Checkpoint::kFormatVersion
           << " reader";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointError::Kind::VersionMismatch);
    EXPECT_NE(std::string(e.what()).find("version 6"), std::string::npos)
        << e.what();
  }
}

TEST_F(CorruptionTest, WrongMagicIsNotACheckpoint) {
  std::string bad = good_;
  bad[0] = 'X';
  spit(path_, bad);
  try {
    Checkpoint::load(path_);
    FAIL() << "bad-magic file loaded";
  } catch (const CheckpointError& e) {
    EXPECT_EQ(e.kind(), CheckpointError::Kind::Corrupt);
  }
}

TEST_F(CorruptionTest, LastGoodCheckpointSurvivesCorruptedSuccessor) {
  // The atomic write-then-rename discipline means a corrupted "new"
  // file never replaces a good old one; model that by keeping a copy.
  const std::string backup = path_ + ".bak";
  spit(backup, good_);
  spit(path_, good_.substr(0, good_.size() / 2));
  EXPECT_THROW(Checkpoint::load(path_), CheckpointError);
  EXPECT_NO_THROW(Checkpoint::load(backup));
  std::remove(backup.c_str());
}

// ---------------------------------------------------------------------
// Resume compatibility checks.

class ResumeMismatchTest : public ::testing::Test {
 protected:
  void SetUp() override {
    w_ = std::make_unique<Lattice>(8, 4);
    // Per-case path: see CorruptionTest::SetUp.
    path_ = temp_path(std::string("mismatch_") +
                      ::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name());
    base_.stop_at_first_violation = false;
    ExploreOptions opts = base_;
    opts.stop_after_states = 10;
    opts.checkpoint_path = path_;
    const ExploreResult r = explore(w_->prg, w_->kc, w_->init, opts);
    ASSERT_TRUE(r.checkpointed);
    ck_ = std::make_unique<Checkpoint>(Checkpoint::load(path_));
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void expect_mismatch(const ptx::Program& prg, const sem::KernelConfig& kc,
                       const sem::Machine& init, const ExploreOptions& opts) {
    try {
      (void)explore(prg, kc, init, opts, ck_.get());
      FAIL() << "resume accepted";
    } catch (const CheckpointError& e) {
      EXPECT_EQ(e.kind(), CheckpointError::Kind::Mismatch);
    }
  }

  std::unique_ptr<Lattice> w_;
  std::string path_;
  ExploreOptions base_;
  std::unique_ptr<Checkpoint> ck_;
};

TEST_F(ResumeMismatchTest, DifferentProgramRejected) {
  const Lattice other(3, 4);
  expect_mismatch(other.prg, w_->kc, w_->init, base_);
}

TEST_F(ResumeMismatchTest, DifferentConfigRejected) {
  const sem::KernelConfig kc{{2, 1, 1}, {4, 1, 1}, 2};
  expect_mismatch(w_->prg, kc, w_->init, base_);
}

TEST_F(ResumeMismatchTest, DifferentBoundsRejected) {
  ExploreOptions opts = base_;
  opts.max_depth = 7;
  expect_mismatch(w_->prg, w_->kc, w_->init, opts);
}

TEST_F(ResumeMismatchTest, DifferentPolicyRejected) {
  ExploreOptions opts = base_;
  opts.partial_order_reduction = true;
  expect_mismatch(w_->prg, w_->kc, w_->init, opts);
}

TEST_F(ResumeMismatchTest, BudgetsAreNotStructural) {
  // A different deadline/mem-limit/checkpoint path must NOT block
  // resume — budgets are transient.
  ExploreOptions opts = base_;
  opts.deadline_ms = 60'000;
  opts.mem_limit_bytes = 1ull << 40;
  opts.checkpoint_path = path_ + ".next";
  const ExploreResult r = explore(w_->prg, w_->kc, w_->init, opts, ck_.get());
  EXPECT_TRUE(r.exhaustive);
  std::remove((path_ + ".next").c_str());
}

}  // namespace
}  // namespace cac::sched
