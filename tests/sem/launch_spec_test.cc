// sem::LaunchSpec / parse_launch_args: the declarative launch surface
// shared by cacval, the benches and the examples.
//
//  * flag parsing round-trips into LaunchSpec fields and returns
//    unrecognized arguments (the front end's own flags) in order;
//  * malformed flags are rejected with LaunchArgError, which carries
//    the conventional usage exit status;
//  * to_launch() yields a runnable initial machine with params and
//    Global initializers applied.
#include "sem/launch.h"

#include <gtest/gtest.h>

#include "programs/corpus.h"
#include "sched/scheduler.h"
#include "support/diag.h"

namespace cac::sem {
namespace {

std::vector<std::string> parse(std::vector<std::string> args,
                               LaunchSpec& spec) {
  return parse_launch_args(args, spec);
}

TEST(LaunchSpecTest, Defaults) {
  const LaunchSpec spec;
  EXPECT_EQ(spec.grid.x, 1u);
  EXPECT_EQ(spec.block.x, 32u);
  EXPECT_EQ(spec.warp_size, 32u);
  const KernelConfig kc = spec.to_config();
  EXPECT_EQ(kc.block.x, 32u);
  EXPECT_EQ(kc.warp_size, 32u);
}

TEST(LaunchSpecTest, ParseRoundTripsAllFlags) {
  LaunchSpec spec;
  const auto rest = parse(
      {"--grid", "2,3", "--block", "8,1,1", "--warp", "4", "--global",
       "0x400", "--shared", "128", "--param", "size=8", "--param",
       "arr_A=0x100", "--init", "0x100=7", "--init", "0x104=0x2a"},
      spec);
  EXPECT_TRUE(rest.empty());
  EXPECT_EQ(spec.grid.x, 2u);
  EXPECT_EQ(spec.grid.y, 3u);
  EXPECT_EQ(spec.grid.z, 1u);
  EXPECT_EQ(spec.block.x, 8u);
  EXPECT_EQ(spec.warp_size, 4u);
  EXPECT_EQ(spec.global_bytes, 0x400u);
  EXPECT_EQ(spec.shared_bytes, 128u);
  ASSERT_EQ(spec.params.size(), 2u);
  EXPECT_EQ(spec.params[0].first, "size");
  EXPECT_EQ(spec.params[0].second, 8u);
  EXPECT_EQ(spec.params[1].first, "arr_A");
  EXPECT_EQ(spec.params[1].second, 0x100u);
  ASSERT_EQ(spec.inits.size(), 2u);
  EXPECT_EQ(spec.inits[0].first, 0x100u);
  EXPECT_EQ(spec.inits[0].second, 7u);
  EXPECT_EQ(spec.inits[1].first, 0x104u);
  EXPECT_EQ(spec.inits[1].second, 0x2au);
}

TEST(LaunchSpecTest, ParseReturnsUnrecognizedArgsInOrder) {
  LaunchSpec spec;
  const auto rest = parse({"kernel.ptx", "--block", "4", "--kernel", "k",
                           "--warp", "2", "--expect", "0x10=3"},
                          spec);
  EXPECT_EQ(rest, (std::vector<std::string>{"kernel.ptx", "--kernel", "k",
                                            "--expect", "0x10=3"}));
  EXPECT_EQ(spec.block.x, 4u);
  EXPECT_EQ(spec.warp_size, 2u);
}

TEST(LaunchSpecTest, RejectsMalformedValues) {
  LaunchSpec spec;
  // Non-numeric dimension.
  EXPECT_THROW(parse({"--grid", "abc"}, spec), LaunchArgError);
  // Trailing junk after a number.
  EXPECT_THROW(parse({"--grid", "12junk"}, spec), LaunchArgError);
  // Too many dimension components.
  EXPECT_THROW(parse({"--block", "1,2,3,4"}, spec), LaunchArgError);
  // Signs are rejected (values are unsigned).
  EXPECT_THROW(parse({"--warp", "-4"}, spec), LaunchArgError);
  EXPECT_THROW(parse({"--warp", "+4"}, spec), LaunchArgError);
  // --param / --init require NAME=VALUE with a non-empty name.
  EXPECT_THROW(parse({"--param", "size"}, spec), LaunchArgError);
  EXPECT_THROW(parse({"--param", "=8"}, spec), LaunchArgError);
  EXPECT_THROW(parse({"--init", "0x100"}, spec), LaunchArgError);
  // A flag at the end with no value.
  EXPECT_THROW(parse({"--block"}, spec), LaunchArgError);
  EXPECT_THROW(parse({"--param"}, spec), LaunchArgError);
}

TEST(LaunchSpecTest, RejectsZeroAndOversizedWarp) {
  LaunchSpec spec;
  for (const char* bad : {"0", "4294967296", "0x100000000"}) {
    try {
      parse({"--warp", bad}, spec);
      FAIL() << "expected LaunchArgError for --warp " << bad;
    } catch (const LaunchArgError& e) {
      EXPECT_NE(std::string(e.what()).find("--warp"), std::string::npos);
    }
  }
  parse({"--warp", "4294967295"}, spec);
  EXPECT_EQ(spec.warp_size, 4294967295u);
}

TEST(LaunchSpecTest, RejectsValuesWiderThanTheirField) {
  // Grid and block extents and --init values land in 32-bit fields; a
  // wider value must be refused, not truncated (grid 4294967297 would
  // otherwise run as grid 1).
  const std::vector<std::pair<std::string, std::string>> bad = {
      {"--grid", "4294967297"},
      {"--grid", "1,0x100000000"},
      {"--block", "4,1,4294967296"},
      {"--init", "0x100=4294967297"},
  };
  for (const auto& [flag, value] : bad) {
    LaunchSpec spec;
    try {
      parse({flag, value}, spec);
      FAIL() << "expected LaunchArgError for " << flag << " " << value;
    } catch (const LaunchArgError& e) {
      EXPECT_NE(std::string(e.what()).find(flag), std::string::npos)
          << e.what();
    }
  }
  LaunchSpec spec;
  parse({"--grid", "4294967295", "--init", "0x100=0xffffffff"}, spec);
  EXPECT_EQ(spec.grid.x, 4294967295u);
  EXPECT_EQ(spec.inits.back().second, 0xffffffffu);
}

TEST(LaunchSpecTest, GenerateGridRejectsZeroWarp) {
  // The last line of defense behind the front ends: a zero warp size
  // used to append empty warps until memory ran out.
  EXPECT_THROW(generate_grid({{1, 1, 1}, {4, 1, 1}, 0}), KernelError);
}

TEST(LaunchSpecTest, ErrorCarriesUsageExitStatus) {
  // Front ends (cacval) translate LaunchArgError into this exit code;
  // tests/sem pins the contract so the CLI behavior can't drift.
  EXPECT_EQ(LaunchArgError::kExitStatus, 2);
  LaunchSpec spec;
  try {
    parse({"--grid", "12junk"}, spec);
    FAIL() << "expected LaunchArgError";
  } catch (const LaunchArgError& e) {
    EXPECT_NE(std::string(e.what()).find("--grid"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("12junk"), std::string::npos);
  }
}

TEST(LaunchSpecTest, ToLaunchBuildsRunnableMachine) {
  const ptx::Program prg = programs::vector_add_listing2();
  const programs::VecAddLayout L;

  LaunchSpec spec;
  const auto rest =
      parse({"--block", "4", "--warp", "4", "--global", "0x400",
             "--shared", "0", "--param", "size=4",
             "--param", "arr_A=0x100", "--param", "arr_B=0x200",
             "--param", "arr_C=0x300", "--init", "0x100=1",
             "--init", "0x104=2", "--init", "0x108=3", "--init",
             "0x10c=4", "--init", "0x200=10", "--init", "0x204=20",
             "--init", "0x208=30", "--init", "0x20c=40"},
          spec);
  EXPECT_TRUE(rest.empty());

  Launch launch = spec.to_launch(prg);
  Machine m = launch.machine();
  sched::FirstChoiceScheduler det;
  const sched::RunResult run = sched::run(prg, spec.to_config(), m, det);
  EXPECT_TRUE(run.terminated()) << run.message;
  for (std::uint32_t i = 0; i < 4; ++i) {
    EXPECT_EQ(m.memory.load(mem::Space::Global, L.c + 4 * i, 4),
              (i + 1) + 10 * (i + 1))
        << "C[" << i << "]";
  }
}

TEST(LaunchSpecTest, ToLaunchHonorsModuleSharedMinimum) {
  const ptx::Program prg = programs::vector_add_listing2();
  LaunchSpec spec;
  spec.block = {4, 1, 1};
  spec.warp_size = 4;
  spec.shared_bytes = 16;
  // A module declaring a larger shared layout wins over the flag.
  Launch launch = spec.to_launch(prg, /*min_shared_bytes=*/256);
  EXPECT_GE(launch.memory().shared_size(), 256u);
}

}  // namespace
}  // namespace cac::sem
