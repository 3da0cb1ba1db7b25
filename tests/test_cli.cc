/**
 * @file
 * In-process tests of the `pstat` CLI error paths (apps/pstat_cli.hh).
 *
 * pstatMain is driven with argv arrays while stdout/stderr are
 * captured, so every exit path — unknown subcommands, missing or
 * corrupt shards, malformed knob values — is asserted on exit code
 * *and* diagnostic without spawning processes. The guard-bits cases
 * are the regression tests for the old std::atof parsing, which read
 * "banana" as a 0-bit guard band (silently disabling the guard)
 * instead of rejecting it.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <initializer_list>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "apps/pstat_cli.hh"
#include "engine/plan.hh"
#include "io/shard.hh"
#include "pbd/dataset.hh"
#include "test_util.hh"

namespace
{

using namespace pstat;
using pstat::test::tempPath;

/** Run the CLI in-process; captures stdout/stderr around the call. */
int
runCli(std::initializer_list<const char *> args,
       std::string *out = nullptr, std::string *err = nullptr)
{
    std::vector<const char *> argv{"pstat"};
    argv.insert(argv.end(), args.begin(), args.end());
    testing::internal::CaptureStdout();
    testing::internal::CaptureStderr();
    const int rc = apps::pstatMain(static_cast<int>(argv.size()),
                                   argv.data());
    const std::string captured_out =
        testing::internal::GetCapturedStdout();
    const std::string captured_err =
        testing::internal::GetCapturedStderr();
    if (out != nullptr)
        *out = captured_out;
    if (err != nullptr)
        *err = captured_err;
    return rc;
}

/** A small valid Columns shard in the test temp dir. */
std::string
makeShard(const std::string &name, int columns = 60)
{
    pbd::DatasetConfig config;
    config.num_columns = columns;
    config.seed = 77;
    const auto ds = pbd::makeDataset(config, "cli");
    const std::string path = tempPath(name);
    test::writeThenRename(path, [&](const std::string &partial) {
        io::writeColumnShard(partial, ds.columns);
    });
    return path;
}

TEST(Cli, HelpExitsZeroAndPrintsUsage)
{
    std::string out;
    EXPECT_EQ(runCli({"--help"}, &out), 0);
    EXPECT_NE(out.find("usage:"), std::string::npos);
    EXPECT_NE(out.find("--adaptive"), std::string::npos);
}

TEST(Cli, NoArgumentsIsAUsageError)
{
    std::string err;
    EXPECT_EQ(runCli({}, nullptr, &err), 2);
    EXPECT_NE(err.find("usage:"), std::string::npos);
}

TEST(Cli, UnknownSubcommandFails)
{
    std::string err;
    EXPECT_EQ(runCli({"frobnicate"}, nullptr, &err), 2);
    EXPECT_NE(err.find("unknown command"), std::string::npos);
}

TEST(Cli, UnknownOptionFails)
{
    std::string err;
    EXPECT_EQ(runCli({"eval", "--bogus", "x", "a.shard"}, nullptr,
                     &err),
              2);
    EXPECT_NE(err.find("unknown option"), std::string::npos);
}

TEST(Cli, MissingShardFails)
{
    const std::string missing = tempPath("no_such_file.shard");
    std::string err;
    EXPECT_EQ(runCli({"eval", "--format", "binary64",
                      missing.c_str()},
                     nullptr, &err),
              1);
    EXPECT_FALSE(err.empty());
}

TEST(Cli, TruncatedShardFails)
{
    const std::string path = makeShard("cli_truncated.shard");
    const auto size = std::filesystem::file_size(path);
    std::filesystem::resize_file(path, size / 2);
    std::string err;
    EXPECT_EQ(runCli({"info", path.c_str()}, nullptr, &err), 1);
    EXPECT_FALSE(err.empty());
    err.clear();
    EXPECT_EQ(runCli({"eval", "--format", "binary64", path.c_str()},
                     nullptr, &err),
              1);
    EXPECT_FALSE(err.empty());
}

TEST(Cli, CrcCorruptShardFails)
{
    const std::string path = makeShard("cli_corrupt.shard");
    const auto size = std::filesystem::file_size(path);
    {
        std::FILE *f = std::fopen(path.c_str(), "r+b");
        ASSERT_NE(f, nullptr);
        ASSERT_EQ(std::fseek(f, static_cast<long>(size / 2), SEEK_SET),
                  0);
        const int byte = std::fgetc(f);
        ASSERT_NE(byte, EOF);
        ASSERT_EQ(std::fseek(f, static_cast<long>(size / 2), SEEK_SET),
                  0);
        std::fputc(byte ^ 0x5a, f);
        std::fclose(f);
    }
    std::string err;
    EXPECT_EQ(runCli({"info", path.c_str()}, nullptr, &err), 1);
    EXPECT_FALSE(err.empty());
    err.clear();
    EXPECT_EQ(runCli({"eval", "--format", "binary64", path.c_str()},
                     nullptr, &err),
              1);
    EXPECT_FALSE(err.empty());
}

TEST(Cli, BadAdaptiveToleranceFails)
{
    const std::string path = makeShard("cli_tol.shard", 20);
    for (const char *tol : {"banana", "0.5", "0", "-inf", "-20x"}) {
        SCOPED_TRACE(tol);
        std::string err;
        EXPECT_EQ(runCli({"eval", "--adaptive", "--tol", tol,
                          path.c_str()},
                         nullptr, &err),
                  2);
        EXPECT_NE(err.find("--tol"), std::string::npos);
    }
}

TEST(Cli, BadAdaptiveThresholdFails)
{
    const std::string path = makeShard("cli_thr.shard", 20);
    for (const char *thr : {"nan", "junk", "-inf"}) {
        SCOPED_TRACE(thr);
        std::string err;
        EXPECT_EQ(runCli({"eval", "--adaptive", "--threshold", thr,
                          path.c_str()},
                         nullptr, &err),
                  2);
        EXPECT_NE(err.find("--threshold"), std::string::npos);
    }
}

TEST(Cli, BadLadderFails)
{
    const std::string path = makeShard("cli_ladder.shard", 20);
    std::string err;
    EXPECT_EQ(runCli({"eval", "--adaptive", "--ladder", "binary63",
                      path.c_str()},
                     nullptr, &err),
              2);
    EXPECT_NE(err.find("--ladder"), std::string::npos);
}

TEST(Cli, AdaptiveConflictsWithFixedFormat)
{
    std::string err;
    EXPECT_EQ(runCli({"eval", "--adaptive", "--format", "binary64",
                      "a.shard"},
                     nullptr, &err),
              2);
    EXPECT_NE(err.find("--format"), std::string::npos);
}

TEST(Cli, BadGuardBitsFlagFails)
{
    // Regression: std::atof read "64x" as 64 and "banana" as 0 — the
    // latter silently disabled the guard band. Both are usage errors
    // now.
    const std::string path = makeShard("cli_guard.shard", 20);
    for (const char *guard : {"banana", "64x", ""}) {
        SCOPED_TRACE(std::string("guard=") + guard);
        std::string err;
        EXPECT_EQ(runCli({"screen", "--format", "binary64",
                          "--guard-bits", guard, path.c_str()},
                         nullptr, &err),
                  2);
        EXPECT_NE(err.find("guard-bits"), std::string::npos);
    }
}

TEST(Cli, BadGuardBitsEnvWarnsAndKeepsDefault)
{
    const std::string path = makeShard("cli_guard_env.shard", 20);
    ASSERT_EQ(setenv("PSTAT_GUARD_BITS", "banana", 1), 0);
    std::string out;
    std::string err;
    const int rc = runCli({"screen", "--format", "binary64",
                           path.c_str()},
                          &out, &err);
    ASSERT_EQ(unsetenv("PSTAT_GUARD_BITS"), 0);
    EXPECT_EQ(rc, 0);
    EXPECT_NE(err.find("PSTAT_GUARD_BITS"), std::string::npos);
    // The default band (64 bits) survives the bad override.
    EXPECT_NE(out.find("guard 64 bits"), std::string::npos);
}

TEST(Cli, InfoPrintsColumnPayloadStats)
{
    const std::string path = makeShard("cli_info_cols.shard", 12);
    std::string out;
    EXPECT_EQ(runCli({"info", path.c_str()}, &out), 0);
    EXPECT_NE(out.find("CRC ok"), std::string::npos);
    EXPECT_NE(out.find("columns: 12 records, K "), std::string::npos);
    EXPECT_NE(out.find(", coverage "), std::string::npos);
}

TEST(Cli, InfoPrintsSequencePayloadStats)
{
    const std::string path = tempPath("cli_info_seqs.shard");
    {
        io::ShardWriter writer(path, io::ShardPayload::Sequences);
        const std::vector<int> a{0, 1, 2, 3};
        const std::vector<int> b{1, 0};
        writer.addSequence(a);
        writer.addSequence(b);
        writer.close();
    }
    std::string out;
    EXPECT_EQ(runCli({"info", path.c_str()}, &out), 0);
    EXPECT_NE(out.find("sequences: 2 records, T 2..4, 6 "
                       "observations"),
              std::string::npos);
}

TEST(Cli, PlanDumpWritesADecodablePlanWithoutRunning)
{
    const std::string shard = makeShard("cli_plandump.shard", 20);
    const std::string plan_path = tempPath("cli_dump.plan");
    std::string out;
    EXPECT_EQ(runCli({"eval", "--format", "log", "--queue", "3",
                      "--plan-dump", plan_path.c_str(),
                      shard.c_str()},
                     &out),
              0);
    EXPECT_NE(out.find("plan: pvalue over shard-stream"),
              std::string::npos);
    // Dumping never evaluates: no per-shard result lines.
    EXPECT_EQ(out.find("total:"), std::string::npos);

    const auto plan = engine::readPlanFile(plan_path);
    EXPECT_EQ(plan.kernel, engine::PlanKernel::PValue);
    EXPECT_EQ(plan.source, engine::PlanSource::ShardStream);
    EXPECT_EQ(plan.policy, engine::PlanPolicy::Fixed);
    EXPECT_EQ(plan.format_id, "log");
    EXPECT_EQ(plan.queue_capacity, 3u);
    ASSERT_EQ(plan.shard_paths.size(), 1u);
    EXPECT_EQ(plan.shard_paths[0], shard);
}

TEST(Cli, PlanFileReplayMatchesDirectFlags)
{
    const std::string shard = makeShard("cli_replay.shard");
    const std::string plan_path = tempPath("cli_replay.plan");
    std::string direct;
    EXPECT_EQ(runCli({"eval", "--format", "binary64", shard.c_str()},
                     &direct),
              0);
    EXPECT_EQ(runCli({"eval", "--format", "binary64", "--plan-dump",
                      plan_path.c_str(), shard.c_str()}),
              0);
    std::string replayed;
    EXPECT_EQ(runCli({"eval", "--plan-file", plan_path.c_str()},
                     &replayed),
              0);
    EXPECT_EQ(replayed, direct); // same shards, same totals line

    // Positional shards override the plan's own paths.
    const std::string other = makeShard("cli_replay_b.shard", 30);
    std::string overridden;
    EXPECT_EQ(runCli({"eval", "--plan-file", plan_path.c_str(),
                      other.c_str()},
                     &overridden),
              0);
    EXPECT_NE(overridden.find(other), std::string::npos);
    EXPECT_EQ(overridden.find(shard), std::string::npos);
}

TEST(Cli, PlanFileRejectsConflictingFlagsAndBadFiles)
{
    const std::string plan_path = tempPath("cli_conflict.plan");
    std::string err;
    EXPECT_EQ(runCli({"eval", "--plan-file", plan_path.c_str(),
                      "--format", "log"},
                     nullptr, &err),
              2);
    EXPECT_NE(err.find("--plan-file"), std::string::npos);

    // Missing and corrupt plan files are data errors, not crashes.
    err.clear();
    EXPECT_EQ(runCli({"eval", "--plan-file",
                      tempPath("nope.plan").c_str()},
                     nullptr, &err),
              1);
    EXPECT_FALSE(err.empty());

    const std::string garbage_path = tempPath("cli_garbage.plan");
    {
        std::FILE *f = std::fopen(garbage_path.c_str(), "wb");
        ASSERT_NE(f, nullptr);
        std::fputs("not a plan", f);
        std::fclose(f);
    }
    err.clear();
    EXPECT_EQ(runCli({"eval", "--plan-file", garbage_path.c_str()},
                     nullptr, &err),
              1);
    EXPECT_FALSE(err.empty());
}

TEST(Cli, ScreenPlanDumpRoundTripsThroughEval)
{
    const std::string shard = makeShard("cli_screen_plan.shard");
    const std::string plan_path = tempPath("cli_screen.plan");
    std::string direct;
    EXPECT_EQ(runCli({"screen", "--format", "log", "--guard-bits",
                      "32", shard.c_str()},
                     &direct),
              0);
    EXPECT_EQ(runCli({"screen", "--format", "log", "--guard-bits",
                      "32", "--plan-dump", plan_path.c_str(),
                      shard.c_str()}),
              0);
    // A dumped screen plan replays through the one plan runner.
    std::string replayed;
    EXPECT_EQ(runCli({"eval", "--plan-file", plan_path.c_str()},
                     &replayed),
              0);
    EXPECT_EQ(replayed, direct);
    EXPECT_NE(replayed.find("guard 32 bits"), std::string::npos);
}

TEST(Cli, AdaptiveEvalRunsAndReportsTiers)
{
    const std::string path = makeShard("cli_adaptive.shard");
    std::string out;
    EXPECT_EQ(runCli({"eval", "--adaptive", "--threshold", "-200",
                      path.c_str()},
                     &out),
              0);
    EXPECT_NE(out.find("certified"), std::string::npos);
    EXPECT_NE(out.find("calls (p < 2^-200)"), std::string::npos);
    EXPECT_NE(out.find("tier"), std::string::npos);

    // A custom single-tier ladder with a value tolerance.
    out.clear();
    EXPECT_EQ(runCli({"eval", "--adaptive", "--ladder", "binary64",
                      "--tol", "-20", path.c_str()},
                     &out),
              0);
    EXPECT_NE(out.find("tier binary64"), std::string::npos);
}

TEST(Cli, EvalWritesAndInfoPrintsAResultShard)
{
    const std::string path = makeShard("cli_out_in.shard");
    const std::string out_path = tempPath("cli_out_results.shard");
    std::string out;
    EXPECT_EQ(runCli({"eval", "--format", "log", "-o",
                      out_path.c_str(), path.c_str()},
                     &out),
              0);
    EXPECT_NE(out.find("wrote " + out_path + ": 60 result records"),
              std::string::npos);

    // info validates and pretty-prints the Results payload.
    out.clear();
    EXPECT_EQ(runCli({"info", out_path.c_str()}, &out), 0);
    EXPECT_NE(out.find("results, 60 records"), std::string::npos);
    EXPECT_NE(out.find("kernel pvalue"), std::string::npos);
    EXPECT_NE(out.find("format log"), std::string::npos);
    EXPECT_NE(out.find("|v| in 2^"), std::string::npos);
    EXPECT_NE(out.find("flags:"), std::string::npos);
}

TEST(Cli, EvalRejectsAResultShardAsInput)
{
    const std::string path = makeShard("cli_reject_in.shard");
    const std::string out_path = tempPath("cli_reject_results.shard");
    ASSERT_EQ(runCli({"eval", "--format", "log", "-o",
                      out_path.c_str(), path.c_str()}),
              0);

    // Feeding the output shard back in is a usage error (exit 2)
    // diagnosed before any evaluation starts.
    std::string err;
    EXPECT_EQ(runCli({"eval", "--format", "log", out_path.c_str()},
                     nullptr, &err),
              2);
    EXPECT_NE(err.find("holds result records"), std::string::npos);

    // Same guard on a --plan-file replay pointed at the wrong data.
    const std::string plan_path = tempPath("cli_reject_plan.bin");
    ASSERT_EQ(runCli({"eval", "--format", "log", "--plan-dump",
                      plan_path.c_str(), path.c_str()}),
              0);
    err.clear();
    EXPECT_EQ(runCli({"eval", "--plan-file", plan_path.c_str(),
                      out_path.c_str()},
                     nullptr, &err),
              2);
    EXPECT_NE(err.find("holds result records"), std::string::npos);
}

TEST(Cli, PlanFileReplayComposesWithOut)
{
    const std::string path = makeShard("cli_plan_out.shard");
    const std::string plan_path = tempPath("cli_plan_out.bin");
    ASSERT_EQ(runCli({"eval", "--format", "log", "--plan-dump",
                      plan_path.c_str(), path.c_str()}),
              0);
    // --out is a runtime binding, not plan configuration, so it must
    // not trip the replay's conflicting-flags guard.
    const std::string out_path = tempPath("cli_plan_out_results.shard");
    std::string out;
    EXPECT_EQ(runCli({"eval", "--plan-file", plan_path.c_str(), "-o",
                      out_path.c_str(), path.c_str()},
                     &out),
              0);
    EXPECT_NE(out.find("wrote " + out_path), std::string::npos);
}

TEST(Cli, ScreenPersistsSkippedFlagsInTheResultShard)
{
    const std::string path = makeShard("cli_screen_out.shard");
    const std::string out_path = tempPath("cli_screen_results.shard");
    std::string out;
    EXPECT_EQ(runCli({"screen", "--format", "log", "-o",
                      out_path.c_str(), path.c_str()},
                     &out),
              0);
    EXPECT_NE(out.find("wrote " + out_path), std::string::npos);

    out.clear();
    EXPECT_EQ(runCli({"info", out_path.c_str()}, &out), 0);
    // The screen skips most columns of this dataset; the skipped
    // count in the flags line must be nonzero (not "0 skipped").
    EXPECT_NE(out.find("skipped"), std::string::npos);
    EXPECT_EQ(out.find(" 0 skipped"), std::string::npos);
}

TEST(Cli, QueueCapEnvIsStrictlyParsed)
{
    const std::string path = makeShard("cli_queuecap.shard");
    const std::string plan_path = tempPath("cli_queuecap_plan.bin");

    // A valid override lands in the built plan.
    ::setenv("PSTAT_QUEUE_CAP", "7", 1);
    std::string out;
    EXPECT_EQ(runCli({"eval", "--format", "log", "--plan-dump",
                      plan_path.c_str(), path.c_str()},
                     &out),
              0);
    ::unsetenv("PSTAT_QUEUE_CAP");
    engine::EvalPlan plan = engine::readPlanFile(plan_path);
    EXPECT_EQ(plan.queue_capacity, 7u);

    // Garbage and non-positive values warn and keep the default 2;
    // an explicit --queue always wins over the env knob.
    for (const char *bad : {"banana", "0", "-3", "2x"}) {
        ::setenv("PSTAT_QUEUE_CAP", bad, 1);
        std::string err;
        EXPECT_EQ(runCli({"eval", "--format", "log", "--plan-dump",
                          plan_path.c_str(), path.c_str()},
                         nullptr, &err),
                  0)
            << bad;
        EXPECT_NE(err.find("ignoring invalid PSTAT_QUEUE_CAP"),
                  std::string::npos)
            << bad;
        plan = engine::readPlanFile(plan_path);
        EXPECT_EQ(plan.queue_capacity, 2u) << bad;
    }
    ::setenv("PSTAT_QUEUE_CAP", "9", 1);
    EXPECT_EQ(runCli({"eval", "--format", "log", "--queue", "3",
                      "--plan-dump", plan_path.c_str(), path.c_str()}),
              0);
    ::unsetenv("PSTAT_QUEUE_CAP");
    plan = engine::readPlanFile(plan_path);
    EXPECT_EQ(plan.queue_capacity, 3u);
}

} // namespace
