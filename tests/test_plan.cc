/**
 * @file
 * EvalPlan tests: value semantics and validation, the versioned wire
 * format (golden vector, round trips, rejection of truncated /
 * corrupted / wrong-version / trailing-garbage bytes), plan files,
 * and the bit-identity contract — run(plan) against the scalar
 * FormatOps kernels item by item, and streamed runs against
 * in-memory ones, swept over every registered format.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/eval_engine.hh"
#include "engine/format_registry.hh"
#include "engine/plan.hh"
#include "hmm/generator.hh"
#include "io/shard.hh"
#include "pbd/dataset.hh"
#include "pbd/pbd.hh"
#include "test_util.hh"

namespace
{

using namespace pstat;

using pstat::test::tempPath;

/** A fully-populated plan exercising every serialized field. */
engine::EvalPlan
fullPlan()
{
    engine::EvalPlan plan;
    plan.kernel = engine::PlanKernel::PValue;
    plan.source = engine::PlanSource::ShardStream;
    plan.policy = engine::PlanPolicy::ScreenedAdaptive;
    plan.ladder_ids = {"binary32", "scaled_dd"};
    plan.cert.tol_rel_log2 = -40.0;
    plan.cert.threshold_log2 = -200.0;
    plan.screen.threshold_log2 = -200.0;
    plan.screen.guard_band_log2 = 48.0;
    plan.threads = 3;
    plan.grain = 16;
    plan.sum = engine::PlanSum::Compensated;
    plan.dataflow = engine::Dataflow::Software;
    plan.renormalize = true;
    plan.simd = "scalar";
    plan.shard_paths = {"a.shard", "b.shard"};
    plan.queue_capacity = 4;
    return plan;
}

/** Rewrite the CRC trailer after deliberately editing plan bytes. */
void
resealPlan(std::vector<uint8_t> &bytes)
{
    ASSERT_GE(bytes.size(), 8u);
    const size_t trailer = bytes.size() - 8;
    const uint32_t crc = io::crc32(0, bytes.data(), trailer);
    for (size_t i = 0; i < 8; ++i)
        bytes[trailer + i] =
            i < 4 ? static_cast<uint8_t>(crc >> (8 * i)) : 0;
}

// ------------------------------------------------------ wire format

TEST(Plan, GoldenEncodeVector)
{
    // The full plan above, encoded by the shipped encoder. A change
    // to these bytes is a wire-format break: bump plan_version and
    // keep decoding this vector.
    const std::vector<uint8_t> golden = {
        0x50, 0x53, 0x54, 0x50, 0x4c, 0x41, 0x4e, 0x31, 0x01, 0x00,
        0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00,
        0x04, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00,
        0x10, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x44, 0xc0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x69, 0xc0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x69, 0xc0,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x48, 0x40, 0x00, 0x00,
        0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00,
        0x62, 0x69, 0x6e, 0x61, 0x72, 0x79, 0x33, 0x32, 0x09, 0x00,
        0x00, 0x00, 0x73, 0x63, 0x61, 0x6c, 0x65, 0x64, 0x5f, 0x64,
        0x64, 0x02, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x61,
        0x2e, 0x73, 0x68, 0x61, 0x72, 0x64, 0x07, 0x00, 0x00, 0x00,
        0x62, 0x2e, 0x73, 0x68, 0x61, 0x72, 0x64, 0x06, 0x00, 0x00,
        0x00, 0x73, 0x63, 0x61, 0x6c, 0x61, 0x72, 0x82, 0xdc, 0x2a,
        0x4c, 0x00, 0x00, 0x00, 0x00};
    EXPECT_EQ(engine::encodePlan(fullPlan()), golden);
    EXPECT_EQ(engine::decodePlan(golden), fullPlan());
}

TEST(Plan, RoundTripsDefaultAndFullPlans)
{
    const engine::EvalPlan defaults;
    EXPECT_EQ(engine::decodePlan(engine::encodePlan(defaults)),
              defaults);
    EXPECT_EQ(engine::decodePlan(engine::encodePlan(fullPlan())),
              fullPlan());

    // Absent optionals stay absent (flag bits, not sentinel values).
    engine::EvalPlan tol_only = fullPlan();
    tol_only.cert.threshold_log2.reset();
    const auto back =
        engine::decodePlan(engine::encodePlan(tol_only));
    EXPECT_TRUE(back.cert.tol_rel_log2.has_value());
    EXPECT_FALSE(back.cert.threshold_log2.has_value());
    EXPECT_EQ(back, tol_only);
}

TEST(Plan, RejectsTruncationAtEveryLength)
{
    const auto bytes = engine::encodePlan(fullPlan());
    for (size_t len = 0; len < bytes.size(); ++len) {
        const std::vector<uint8_t> cut(bytes.begin(),
                                       bytes.begin() + len);
        EXPECT_THROW(engine::decodePlan(cut), engine::PlanError)
            << "accepted a plan truncated to " << len << " bytes";
    }
}

TEST(Plan, RejectsGarbageAndBadMagic)
{
    EXPECT_THROW(engine::decodePlan({}), engine::PlanError);
    const std::vector<uint8_t> garbage(64, 0xa5);
    EXPECT_THROW(engine::decodePlan(garbage), engine::PlanError);

    auto bytes = engine::encodePlan(fullPlan());
    bytes[0] ^= 0xff; // break the magic (and the CRC)
    EXPECT_THROW(engine::decodePlan(bytes), engine::PlanError);
}

TEST(Plan, RejectsEveryFlippedByte)
{
    // The CRC trailer catches any single-byte corruption anywhere in
    // the buffer (a trailer flip breaks the stored CRC itself).
    const auto bytes = engine::encodePlan(fullPlan());
    for (size_t i = 0; i < bytes.size(); ++i) {
        auto copy = bytes;
        copy[i] ^= 0x01;
        EXPECT_THROW(engine::decodePlan(copy), engine::PlanError)
            << "accepted a plan with byte " << i << " flipped";
    }
}

TEST(Plan, RejectsWrongVersion)
{
    auto bytes = engine::encodePlan(fullPlan());
    bytes[8] = 2; // version field follows the 8-byte magic
    resealPlan(bytes);
    try {
        engine::decodePlan(bytes);
        FAIL() << "accepted an unsupported plan version";
    } catch (const engine::PlanError &error) {
        EXPECT_NE(std::string(error.what()).find("version"),
                  std::string::npos);
    }
}

TEST(Plan, RejectsUnknownFlagBitsAndBadEnums)
{
    // Flag word at offset 28 (magic 8 + six u32 fields).
    auto flagged = engine::encodePlan(fullPlan());
    flagged[28 + 3] |= 0x80;
    resealPlan(flagged);
    EXPECT_THROW(engine::decodePlan(flagged), engine::PlanError);

    // Kernel enum at offset 12: 0 is outside every plan enum.
    auto bad_kernel = engine::encodePlan(fullPlan());
    bad_kernel[12] = 0;
    resealPlan(bad_kernel);
    EXPECT_THROW(engine::decodePlan(bad_kernel), engine::PlanError);
}

TEST(Plan, RejectsTrailingBytes)
{
    auto bytes = engine::encodePlan(fullPlan());
    // Splice two garbage bytes between the payload and the trailer,
    // then reseal: the CRC passes but the cursor must notice the
    // unconsumed tail.
    bytes.insert(bytes.end() - 8, {0xde, 0xad});
    resealPlan(bytes);
    try {
        engine::decodePlan(bytes);
        FAIL() << "accepted a plan with trailing bytes";
    } catch (const engine::PlanError &error) {
        EXPECT_NE(std::string(error.what()).find("trailing"),
                  std::string::npos);
    }
}

TEST(Plan, PlanFileRoundTripAndErrors)
{
    const std::string path = tempPath("roundtrip.plan");
    engine::writePlanFile(path, fullPlan());
    EXPECT_EQ(engine::readPlanFile(path), fullPlan());

    EXPECT_THROW(engine::readPlanFile(tempPath("missing.plan")),
                 engine::PlanError);

    // A corrupt file surfaces as a PlanError naming the path.
    auto bytes = engine::encodePlan(fullPlan());
    bytes[20] ^= 0x10;
    const std::string bad = tempPath("corrupt.plan");
    std::FILE *f = std::fopen(bad.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
              bytes.size());
    std::fclose(f);
    try {
        engine::readPlanFile(bad);
        FAIL() << "accepted a corrupt plan file";
    } catch (const engine::PlanError &error) {
        EXPECT_NE(std::string(error.what()).find(bad),
                  std::string::npos);
    }
}

// -------------------------------------------------------- validation

TEST(Plan, ValidatesPolicyKernelAndKnobCombinations)
{
    EXPECT_NO_THROW(engine::validatePlan(fullPlan()));

    // The minimal runnable plan: defaults plus a format id. The bare
    // default is rejected — a fixed policy with no format is the
    // classic half-built plan.
    engine::EvalPlan minimal;
    minimal.format_id = "binary64";
    EXPECT_NO_THROW(engine::validatePlan(minimal));
    engine::EvalPlan defaults;
    EXPECT_THROW(engine::validatePlan(defaults),
                 std::invalid_argument);

    // Screening is a p-value concept.
    engine::EvalPlan screened_forward;
    screened_forward.kernel = engine::PlanKernel::Forward;
    screened_forward.policy = engine::PlanPolicy::Screened;
    EXPECT_THROW(engine::validatePlan(screened_forward),
                 std::invalid_argument);

    // Decode kernels have no streamed implementation.
    engine::EvalPlan viterbi_stream;
    viterbi_stream.kernel = engine::PlanKernel::Viterbi;
    viterbi_stream.source = engine::PlanSource::ShardStream;
    viterbi_stream.shard_paths = {"x.shard"};
    EXPECT_THROW(engine::validatePlan(viterbi_stream),
                 std::invalid_argument);

    // Unregistered ids are caught before any engine work.
    engine::EvalPlan bad_format;
    bad_format.format_id = "binary63";
    EXPECT_THROW(engine::validatePlan(bad_format),
                 std::invalid_argument);
    engine::EvalPlan bad_ladder = fullPlan();
    bad_ladder.ladder_ids = {"binary64", "no_such_format"};
    EXPECT_THROW(engine::validatePlan(bad_ladder),
                 std::invalid_argument);

    // Adaptive certification needs at least one criterion, and the
    // tolerance must be a finite negative log2.
    engine::EvalPlan no_cert = fullPlan();
    no_cert.cert = engine::CertConfig{};
    EXPECT_THROW(engine::validatePlan(no_cert),
                 std::invalid_argument);
    engine::EvalPlan bad_tol = fullPlan();
    bad_tol.cert.tol_rel_log2 = 3.0;
    EXPECT_THROW(engine::validatePlan(bad_tol),
                 std::invalid_argument);

    // Streams need room for at least one in-flight shard.
    engine::EvalPlan no_queue = fullPlan();
    no_queue.queue_capacity = 0;
    EXPECT_THROW(engine::validatePlan(no_queue),
                 std::invalid_argument);

    // The SIMD knob only accepts the engine's ISA tokens.
    engine::EvalPlan bad_simd;
    bad_simd.simd = "avx1024";
    EXPECT_THROW(engine::validatePlan(bad_simd),
                 std::invalid_argument);
}

TEST(Plan, DescribeNamesTheShape)
{
    const auto text = engine::describePlan(fullPlan());
    EXPECT_NE(text.find("pvalue"), std::string::npos);
    EXPECT_NE(text.find("shard-stream"), std::string::npos);
    EXPECT_NE(text.find("screened-adaptive"), std::string::npos);
}

// ----------------------------------------- plan-vs-scalar identity

/**
 * Shared fixture: one small dataset + shards, built once. Every
 * test compares run(plan) against the scalar FormatOps kernel
 * applied item by item, and streamed runs against in-memory ones.
 */
class PlanIdentity : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        pbd::DatasetConfig config;
        config.num_columns = 24;
        config.median_coverage = 80.0;
        config.coverage_sigma = 0.4;
        config.variant_fraction = 0.2;
        config.seed = 4447;
        dataset_ = new std::vector<pbd::Column>(
            pbd::makeDataset(config, "plan").columns);

        shard_paths_ = new std::vector<std::string>;
        for (int s = 0; s < 2; ++s) {
            const std::string path =
                tempPath("plan_identity_" + std::to_string(s) +
                         ".shard");
            const size_t half = dataset_->size() / 2;
            test::writeThenRename(path, [&](const std::string &partial) {
                io::writeColumnShard(
                    partial,
                    std::vector<pbd::Column>(
                        dataset_->begin() + (s == 0 ? 0 : half),
                        s == 0 ? dataset_->begin() + half
                               : dataset_->end()));
            });
            shard_paths_->push_back(path);
        }
    }

    static void
    TearDownTestSuite()
    {
        delete dataset_;
        delete shard_paths_;
        dataset_ = nullptr;
        shard_paths_ = nullptr;
    }

    /** A p-value plan over the dataset, in memory or streamed. */
    static engine::EvalPlan
    pvaluePlan(engine::PlanPolicy policy, engine::PlanSource source)
    {
        engine::EvalPlan plan;
        plan.policy = policy;
        plan.source = source;
        plan.sum = engine::PlanSum::Plain;
        if (source == engine::PlanSource::ShardStream)
            plan.shard_paths = *shard_paths_;
        return plan;
    }

    /** run(plan) over the dataset (bound for memory plans). */
    static engine::PlanRun
    runOnDataset(engine::EvalEngine &engine,
                 const engine::EvalPlan &plan)
    {
        engine::PlanInputs inputs;
        inputs.columns = *dataset_;
        return engine.run(plan, inputs);
    }

    /** The scalar kernel's p-value of dataset column @p i. */
    static engine::EvalResult
    scalarPValue(const engine::FormatOps &format, size_t i)
    {
        const pbd::Column &column = (*dataset_)[i];
        return format.pbdPValue(column.success_probs, column.k,
                                engine::SumPolicy::Plain);
    }

    static void
    expectSameResult(const engine::EvalResult &got,
                     const engine::EvalResult &want,
                     const std::string &tag)
    {
        EXPECT_TRUE(got.value == want.value) << tag;
        EXPECT_EQ(got.invalid, want.invalid) << tag;
        EXPECT_EQ(got.underflow, want.underflow) << tag;
    }

    static void
    expectSameResults(const std::vector<engine::EvalResult> &got,
                      const std::vector<engine::EvalResult> &want,
                      const std::string &tag)
    {
        ASSERT_EQ(got.size(), want.size()) << tag;
        for (size_t i = 0; i < got.size(); ++i)
            expectSameResult(got[i], want[i],
                             tag + " slot " + std::to_string(i));
    }

    /** Fixed-policy results against the scalar kernel, per column. */
    static void
    expectScalarPValues(const engine::FormatOps &format,
                        const std::vector<engine::EvalResult> &got)
    {
        ASSERT_EQ(got.size(), dataset_->size()) << format.id();
        for (size_t i = 0; i < got.size(); ++i)
            expectSameResult(got[i], scalarPValue(format, i),
                             format.id() + " column " +
                                 std::to_string(i));
    }

    static void
    expectSameAdaptive(const engine::AdaptiveBatch &got,
                       const engine::AdaptiveBatch &want,
                       const std::string &tag)
    {
        ASSERT_EQ(got.results.size(), want.results.size()) << tag;
        for (size_t i = 0; i < got.results.size(); ++i) {
            const std::string slot = tag + " slot " + std::to_string(i);
            const engine::EscalationResult &a = got.results[i];
            const engine::EscalationResult &b = want.results[i];
            expectSameResult(a.result, b.result, slot);
            EXPECT_EQ(a.tier, b.tier) << slot;
            EXPECT_EQ(a.certified, b.certified) << slot;
            EXPECT_EQ(a.interval.lo_log2, b.interval.lo_log2) << slot;
            EXPECT_EQ(a.interval.hi_log2, b.interval.hi_log2) << slot;
        }
        EXPECT_EQ(got.skipped, want.skipped) << tag;
        EXPECT_EQ(got.certified, want.certified) << tag;
        EXPECT_EQ(got.uncertified, want.uncertified) << tag;
    }

    static std::vector<pbd::Column> *dataset_;
    static std::vector<std::string> *shard_paths_;
};

std::vector<pbd::Column> *PlanIdentity::dataset_ = nullptr;
std::vector<std::string> *PlanIdentity::shard_paths_ = nullptr;

TEST_F(PlanIdentity, FixedBatchMatchesEveryFormat)
{
    engine::EvalEngine engine(2);
    for (const auto &id : engine::FormatRegistry::instance().ids()) {
        engine::EvalPlan plan = pvaluePlan(engine::PlanPolicy::Fixed,
                                           engine::PlanSource::Memory);
        plan.format_id = id;
        expectScalarPValues(engine::FormatRegistry::instance().at(id),
                            runOnDataset(engine, plan).results);
    }
}

TEST_F(PlanIdentity, FixedStreamMatchesEveryFormat)
{
    engine::EvalEngine engine(2);
    for (const auto &id : engine::FormatRegistry::instance().ids()) {
        // No sink: run() accumulates shard batches in stream order.
        engine::EvalPlan plan =
            pvaluePlan(engine::PlanPolicy::Fixed,
                       engine::PlanSource::ShardStream);
        plan.format_id = id;
        const engine::PlanRun run = engine.run(plan);
        expectScalarPValues(engine::FormatRegistry::instance().at(id),
                            run.results);
        EXPECT_EQ(run.stream.shards, shard_paths_->size());
    }
}

TEST_F(PlanIdentity, ScreenedBatchAndStreamMatch)
{
    engine::EvalEngine engine(2);
    pbd::ScreenConfig screen;
    screen.guard_band_log2 = 32.0;
    for (const std::string id : {"binary64", "log", "log32"}) {
        const auto &format =
            engine::FormatRegistry::instance().at(id);
        engine::EvalPlan plan = pvaluePlan(
            engine::PlanPolicy::Screened, engine::PlanSource::Memory);
        plan.format_id = id;
        plan.screen = screen;
        const auto got = runOnDataset(engine, plan).screened;

        // Evaluated columns carry the scalar kernel's bits; skipped
        // ones the 2^round(estimate) placeholder.
        ASSERT_EQ(got.results.size(), dataset_->size()) << id;
        ASSERT_EQ(got.skipped.size(), dataset_->size()) << id;
        size_t skipped = 0;
        for (size_t i = 0; i < dataset_->size(); ++i) {
            const pbd::Column &column = (*dataset_)[i];
            EXPECT_EQ(got.estimates_log2[i],
                      pbd::pvalueLog2Estimate(column.success_probs,
                                              column.k));
            if (got.skipped[i]) {
                ++skipped;
                EXPECT_TRUE(got.results[i].value ==
                            BigFloat::twoPow(
                                std::llround(got.estimates_log2[i])));
                continue;
            }
            expectSameResult(got.results[i], scalarPValue(format, i),
                             id + " column " + std::to_string(i));
        }
        EXPECT_EQ(got.stats.skipped, skipped);
        EXPECT_EQ(got.stats.columns, dataset_->size());

        // Streamed, via the plan's own shard paths: the merged
        // shard batches equal the in-memory batch.
        engine::EvalPlan stream_plan = plan;
        stream_plan.source = engine::PlanSource::ShardStream;
        stream_plan.shard_paths = *shard_paths_;
        const auto streamed = engine.run(stream_plan).screened;
        expectSameResults(streamed.results, got.results, id);
        EXPECT_EQ(streamed.skipped, got.skipped);
        EXPECT_EQ(streamed.estimates_log2, got.estimates_log2);
        EXPECT_EQ(streamed.stats.skipped, got.stats.skipped);
        EXPECT_EQ(streamed.stats.guard_band_hits,
                  got.stats.guard_band_hits);
    }
}

TEST_F(PlanIdentity, AdaptiveBatchAndStreamMatch)
{
    engine::EvalEngine engine(2);
    engine::CertConfig cert;
    cert.threshold_log2 = -60.0;

    // Every registered format as its own single-tier ladder, plus
    // the default multi-tier ladder (empty ladder_ids).
    std::vector<std::vector<std::string>> ladders;
    for (const auto &id : engine::FormatRegistry::instance().ids())
        ladders.push_back({id});
    ladders.push_back({});
    for (const auto &ids : ladders) {
        const std::string tag = ids.empty() ? "default" : ids[0];
        const engine::Ladder ladder =
            ids.empty() ? engine::defaultLadder()
                        : *engine::parseLadder(ids[0]);
        engine::EvalPlan plan = pvaluePlan(
            engine::PlanPolicy::Adaptive, engine::PlanSource::Memory);
        plan.ladder_ids = ids;
        plan.cert = cert;
        const auto got = runOnDataset(engine, plan).adaptive;

        // A ladder-tier result is that tier's scalar kernel value.
        ASSERT_EQ(got.results.size(), dataset_->size()) << tag;
        for (size_t i = 0; i < dataset_->size(); ++i) {
            const engine::EscalationResult &r = got.results[i];
            if (r.tier == engine::kTierAnalytic) {
                EXPECT_TRUE(r.certified) << tag << " column " << i;
                continue;
            }
            ASSERT_GE(r.tier, 0) << tag << " column " << i;
            ASSERT_LT(static_cast<size_t>(r.tier), ladder.tiers.size());
            expectSameResult(r.result,
                             scalarPValue(*ladder.tiers[r.tier], i),
                             tag + " column " + std::to_string(i));
        }
        EXPECT_EQ(got.certified + got.uncertified, dataset_->size());

        engine::EvalPlan stream_plan = plan;
        stream_plan.source = engine::PlanSource::ShardStream;
        stream_plan.shard_paths = *shard_paths_;
        expectSameAdaptive(engine.run(stream_plan).adaptive, got, tag);

        // Screened-adaptive: the same memory-vs-stream identity.
        engine::EvalPlan screened = plan;
        screened.policy = engine::PlanPolicy::ScreenedAdaptive;
        engine::EvalPlan screened_stream = stream_plan;
        screened_stream.policy = engine::PlanPolicy::ScreenedAdaptive;
        expectSameAdaptive(engine.run(screened_stream).adaptive,
                           runOnDataset(engine, screened).adaptive,
                           tag + " screened");
    }
}

// ----------------------------------------- scheduling invariance

/**
 * A ragged p-value mix aimed at the tiled batch path: K <= 0 columns
 * (answered without a tile lane), K > N and empty columns, deep
 * K > 512 columns (past the tile's L1 cap, so the row kernel runs),
 * equal-K runs with rising and falling N, and a ragged bulk — 61
 * columns, interleaved so input order is far from tile order and
 * neither the block nor either shard is a multiple of 8 columns.
 */
std::vector<pbd::Column>
raggedMix()
{
    std::vector<pbd::Column> mix;
    auto add = [&mix](int n, int k, double base) {
        pbd::Column column;
        column.k = k;
        const auto salt = static_cast<int>(mix.size());
        for (int r = 0; r < n; ++r)
            column.success_probs.push_back(
                std::min(0.999, base * (1 + (r * 7 + salt * 3) % 29)));
        mix.push_back(std::move(column));
    };
    for (int c = 0; c < 31; ++c) {
        add(20 + (c * 37) % 280, 1 + (c * 11) % 40, 1e-3);
        switch (c % 6) {
        case 0:
            add(40 + c * 13, 3, 1e-3); // equal-K run, N rising
            break;
        case 1:
            add(200 - c * 5, 6, 2e-3); // equal-K run, N falling
            break;
        case 2:
            add(60 + c, c % 4 == 0 ? 0 : -1, 1e-3); // K <= 0
            break;
        case 3:
            add(540 + c * 4, 513 + c % 5, 0.033); // deep K: row kernel
            break;
        case 4:
            add(40 + c * 13, 3, 1e-3);
            add(c, c + 2, 1e-2); // K > N (c = 4 is the shortest)
            break;
        default:
            add(c == 5 ? 0 : 200 - c * 5, 6, 2e-3); // one empty column
            break;
        }
    }
    mix.resize(61);
    return mix;
}

/** Every byte of a file. */
std::vector<char>
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/**
 * Fixed, screened, adaptive and screened-adaptive p-value plans over
 * the ragged mix, in memory and streamed, under lane/grain schedules
 * from serial to grains that split tiles: every result shard must be
 * byte-equal to the serial in-memory run's, and every batch field and
 * TierStats count equal. A lane's operations depend only on its own
 * column, so how the block is chunked must not show in any bit.
 */
TEST_F(PlanIdentity, PValueBitsDoNotDependOnScheduling)
{
    const std::vector<pbd::Column> mix = raggedMix();
    ASSERT_EQ(mix.size(), 61u);
    std::vector<std::string> mix_shards;
    for (int s = 0; s < 2; ++s) {
        const std::string path =
            tempPath("sched_mix_" + std::to_string(s) + ".shard");
        const auto split = mix.begin() + 27;
        test::writeThenRename(path, [&](const std::string &partial) {
            io::writeColumnShard(
                partial,
                std::vector<pbd::Column>(s == 0 ? mix.begin() : split,
                                         s == 0 ? split : mix.end()));
        });
        mix_shards.push_back(path);
    }

    struct Schedule
    {
        unsigned lanes;
        size_t grain;
    };
    const Schedule schedules[] = {{1, 0}, {2, 1}, {3, 5}, {4, 0}, {4, 13}};

    // A relative tolerance the analytic bounds rarely meet and a
    // screen band that keeps about half the mix, so the ladder tiers
    // and the screen's survivors are ragged subsets of each block.
    engine::CertConfig cert;
    cert.tol_rel_log2 = -20.0;
    pbd::ScreenConfig screen;
    screen.threshold_log2 = -40.0;
    screen.guard_band_log2 = 24.0;

    std::vector<engine::EvalPlan> plans;
    for (const std::string id : {"binary64", "binary32", "log"}) {
        engine::EvalPlan plan;
        plan.sum = engine::PlanSum::Plain;
        plan.format_id = id;
        plan.screen = screen;
        plan.policy = engine::PlanPolicy::Fixed;
        plans.push_back(plan);
        plan.policy = engine::PlanPolicy::Screened;
        plans.push_back(plan);
        plan.format_id = "binary64";
        plan.ladder_ids = {id};
        plan.cert = cert;
        plan.policy = engine::PlanPolicy::Adaptive;
        plans.push_back(plan);
        plan.policy = engine::PlanPolicy::ScreenedAdaptive;
        plans.push_back(plan);
    }
    // The paper's five-tier ladder at a looser tolerance: binary32
    // certifies part of what it evaluates, so each tier's evaluation
    // set is a different ragged subset.
    engine::EvalPlan ladder = plans.back();
    ladder.ladder_ids = {"bfloat16", "binary32", "binary64", "log",
                         "scaled_dd"};
    ladder.cert.tol_rel_log2 = -12.0;
    plans.push_back(ladder);
    ladder.policy = engine::PlanPolicy::Adaptive;
    plans.push_back(ladder);

    const std::string out_path = tempPath("sched_results.shard");
    for (const engine::EvalPlan &base : plans) {
        std::optional<engine::PlanRun> want;
        std::vector<char> want_bytes;
        for (const bool stream : {false, true}) {
            for (const Schedule &schedule : schedules) {
                const std::string tag =
                    engine::describePlan(base) + (stream ? " stream" : " memory") +
                    " lanes " + std::to_string(schedule.lanes) +
                    " grain " + std::to_string(schedule.grain);
                engine::EvalPlan plan = base;
                engine::PlanInputs inputs;
                if (stream) {
                    plan.source = engine::PlanSource::ShardStream;
                    plan.shard_paths = mix_shards;
                } else {
                    inputs.columns = mix;
                }
                engine::EvalEngine engine(schedule.lanes,
                                          schedule.grain);
                std::optional<engine::PlanRun> got;
                {
                    engine::ShardFileSink file(out_path, plan.kernel,
                                               "mix");
                    inputs.result_sink = &file;
                    got = engine.run(plan, inputs);
                }
                const std::vector<char> bytes = fileBytes(out_path);
                ASSERT_FALSE(bytes.empty()) << tag;
                if (!want) {
                    want = std::move(got);
                    want_bytes = bytes;
                    continue;
                }
                EXPECT_TRUE(bytes == want_bytes) << tag;
                expectSameResults(got->results, want->results, tag);
                expectSameResults(got->screened.results,
                                  want->screened.results, tag);
                EXPECT_EQ(got->screened.skipped, want->screened.skipped)
                    << tag;
                EXPECT_EQ(got->screened.stats.skipped,
                          want->screened.stats.skipped)
                    << tag;
                expectSameAdaptive(got->adaptive, want->adaptive, tag);
                ASSERT_EQ(got->adaptive.tiers.size(),
                          want->adaptive.tiers.size())
                    << tag;
                for (size_t t = 0; t < got->adaptive.tiers.size(); ++t) {
                    const engine::TierStats &a = got->adaptive.tiers[t];
                    const engine::TierStats &b = want->adaptive.tiers[t];
                    EXPECT_EQ(a.format_id, b.format_id) << tag;
                    EXPECT_EQ(a.evaluated, b.evaluated) << tag;
                    EXPECT_EQ(a.certified, b.certified) << tag;
                    EXPECT_EQ(a.bypassed, b.bypassed) << tag;
                }
            }
        }
    }
}

TEST_F(PlanIdentity, HmmKernelsMatchScalarKernels)
{
    stats::Rng rng(9109);
    hmm::PhyloConfig phylo;
    const hmm::Model model = hmm::makePhyloModel(rng, phylo);
    std::vector<std::vector<int>> obs;
    for (int i = 0; i < 6; ++i)
        obs.push_back(hmm::sampleObservations(rng, model, 40));
    std::vector<engine::ForwardJob> jobs;
    for (const auto &seq : obs)
        jobs.push_back({&model, seq});

    engine::EvalEngine engine(2);
    engine::PlanInputs inputs;
    inputs.jobs = jobs;
    const auto dataflow = engine::Dataflow::Accelerator;
    for (const auto &id : engine::FormatRegistry::instance().ids()) {
        const auto &format =
            engine::FormatRegistry::instance().at(id);
        engine::EvalPlan plan;
        plan.format_id = id;

        plan.kernel = engine::PlanKernel::Forward;
        const auto forward = engine.run(plan, inputs).results;
        plan.kernel = engine::PlanKernel::Backward;
        const auto backward = engine.run(plan, inputs).results;
        plan.kernel = engine::PlanKernel::Posterior;
        plan.renormalize = true;
        const auto posterior = engine.run(plan, inputs).posteriors;
        plan.kernel = engine::PlanKernel::Viterbi;
        const auto viterbi = engine.run(plan, inputs).decodes;
        ASSERT_EQ(forward.size(), jobs.size()) << id;
        ASSERT_EQ(backward.size(), jobs.size()) << id;
        ASSERT_EQ(posterior.size(), jobs.size()) << id;
        ASSERT_EQ(viterbi.size(), jobs.size()) << id;

        for (size_t j = 0; j < jobs.size(); ++j) {
            const std::string tag = id + " job " + std::to_string(j);
            expectSameResult(forward[j],
                             format.hmmForward(model, obs[j], dataflow),
                             tag + " forward");
            expectSameResult(
                backward[j],
                format.hmmBackward(model, obs[j], dataflow),
                tag + " backward");

            const engine::PosteriorResult want_post =
                format.hmmPosterior(model, obs[j], dataflow, true);
            expectSameResults(posterior[j].gamma, want_post.gamma,
                              tag + " posterior");
            expectSameResult(posterior[j].likelihood,
                             want_post.likelihood, tag + " posterior");
            EXPECT_EQ(posterior[j].first_underflow_step,
                      want_post.first_underflow_step)
                << tag;

            const engine::ViterbiResult want_vit =
                format.hmmViterbi(model, obs[j]);
            EXPECT_EQ(viterbi[j].path, want_vit.path) << tag;
            expectSameResult(viterbi[j].probability,
                             want_vit.probability, tag + " viterbi");
            EXPECT_EQ(viterbi[j].first_underflow_step,
                      want_vit.first_underflow_step)
                << tag;
        }
    }
}

TEST_F(PlanIdentity, RunRejectsMissingBindings)
{
    engine::EvalEngine engine(1);

    // A forward stream plan without a bound model cannot run.
    engine::EvalPlan forward_stream;
    forward_stream.kernel = engine::PlanKernel::Forward;
    forward_stream.source = engine::PlanSource::ShardStream;
    forward_stream.format_id = "binary64";
    forward_stream.shard_paths = *shard_paths_;
    EXPECT_THROW(engine.run(forward_stream), std::invalid_argument);

    // A stream plan without shard paths.
    engine::EvalPlan pathless;
    pathless.source = engine::PlanSource::ShardStream;
    pathless.format_id = "binary64";
    EXPECT_THROW(engine.run(pathless), std::invalid_argument);

    // An invalid plan never reaches the kernels.
    engine::EvalPlan invalid;
    invalid.format_id = "no_such_format";
    EXPECT_THROW(engine.run(invalid), std::invalid_argument);
}

} // namespace
