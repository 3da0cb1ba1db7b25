/**
 * @file
 * Shard-file tests: write→mmap-read round trips (bit-exact payload
 * recovery, per-format kernel bit-identity on mapped views), the
 * full corruption matrix (truncation, bad magic, unsupported
 * version, unknown payload tag, CRC mismatch, record overrun,
 * trailing bytes), zero-record files, and writer misuse.
 */

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/format_registry.hh"
#include "io/shard.hh"
#include "pbd/dataset.hh"
#include "pbd/pbd.hh"
#include "test_util.hh"

namespace
{

using namespace pstat;

using pstat::test::tempPath;

/** A small column mix incl. the k = 0 and empty-column edges. */
std::vector<pbd::Column>
makeColumns()
{
    std::vector<pbd::Column> columns;
    stats::Rng rng(20260729);
    for (int i = 0; i < 12; ++i) {
        pbd::Column col;
        const int n = 5 + 7 * i;
        col.success_probs.reserve(n);
        for (int j = 0; j < n; ++j)
            col.success_probs.push_back(
                std::pow(10.0, -rng.uniform(0.5, 8.0)));
        col.k = i % 5;
        columns.push_back(std::move(col));
    }
    columns.push_back(pbd::Column{}); // empty: n = 0, k = 0
    pbd::Column zero_k;
    zero_k.success_probs = {0.25, 0.5};
    zero_k.k = 0;
    columns.push_back(std::move(zero_k));
    return columns;
}

/** The raw bytes of a file, for corruption surgery. */
std::vector<unsigned char>
slurp(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    EXPECT_NE(f, nullptr);
    std::vector<unsigned char> bytes;
    unsigned char buf[4096];
    size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.insert(bytes.end(), buf, buf + got);
    std::fclose(f);
    return bytes;
}

void
spit(const std::string &path, const std::vector<unsigned char> &bytes)
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f),
              bytes.size());
    ASSERT_EQ(std::fclose(f), 0);
}

/** EXPECT a ShardError whose message mentions `needle`. */
void
expectShardError(const std::string &path, const std::string &needle)
{
    try {
        const io::ShardReader reader(path);
        FAIL() << "expected ShardError mentioning \"" << needle
               << "\" opening " << path;
    } catch (const io::ShardError &error) {
        EXPECT_NE(std::string(error.what()).find(needle),
                  std::string::npos)
            << "message was: " << error.what();
    }
}

TEST(Shard, RoundTripRecoversEveryBit)
{
    const auto columns = makeColumns();
    const std::string path = tempPath("roundtrip.shard");
    io::writeColumnShard(path, columns);

    const io::ShardReader reader(path);
    EXPECT_EQ(reader.payload(), io::ShardPayload::Columns);
    EXPECT_EQ(reader.version(), io::shard_version);
    ASSERT_EQ(reader.size(), columns.size());
    EXPECT_EQ(reader.fileBytes(),
              sizeof(io::ShardHeader) + reader.payloadBytes() +
                  io::shard_trailer_bytes);

    for (size_t i = 0; i < columns.size(); ++i) {
        const pbd::ColumnView view = reader.column(i);
        EXPECT_EQ(view.k, columns[i].k);
        ASSERT_EQ(view.success_probs.size(),
                  columns[i].success_probs.size());
        for (size_t j = 0; j < view.success_probs.size(); ++j) {
            // Bit-exact, not value-equal: the format must round-trip
            // every payload (NaN payloads, signed zeros) unchanged.
            EXPECT_EQ(
                std::bit_cast<uint64_t>(view.success_probs[j]),
                std::bit_cast<uint64_t>(columns[i].success_probs[j]));
        }
    }

    const auto materialized = io::readColumnShard(path);
    ASSERT_EQ(materialized.size(), columns.size());
    for (size_t i = 0; i < columns.size(); ++i) {
        EXPECT_EQ(materialized[i].k, columns[i].k);
        EXPECT_EQ(materialized[i].success_probs,
                  columns[i].success_probs);
    }
}

TEST(Shard, MappedViewsAreZeroCopyAndAligned)
{
    const auto columns = makeColumns();
    const std::string path = tempPath("aligned.shard");
    io::writeColumnShard(path, columns);

    const io::ShardReader reader(path);
    for (size_t i = 0; i < reader.size(); ++i) {
        const pbd::ColumnView view = reader.column(i);
        if (view.success_probs.empty())
            continue;
        // Zero-copy means the span points into the mapping — and the
        // doubles must be naturally aligned there.
        EXPECT_EQ(reinterpret_cast<uintptr_t>(
                      view.success_probs.data()) %
                      alignof(double),
                  0u);
    }
}

TEST(Shard, RoundTripBitIdenticalPValuePerRegisteredFormat)
{
    // The streamed-evaluation contract starts here: the exact DP on
    // a mapped view must be bit-identical to the same DP on the
    // in-memory column, for every registered format.
    const auto columns = makeColumns();
    const std::string path = tempPath("performat.shard");
    io::writeColumnShard(path, columns);
    const io::ShardReader reader(path);

    for (const auto *format :
         engine::FormatRegistry::instance().all()) {
        for (size_t i = 0; i < columns.size(); ++i) {
            const auto want = format->pbdPValue(
                columns[i].success_probs, columns[i].k,
                engine::SumPolicy::Plain);
            const pbd::ColumnView view = reader.column(i);
            const auto got = format->pbdPValue(
                view.success_probs, view.k,
                engine::SumPolicy::Plain);
            EXPECT_TRUE(got.value == want.value)
                << format->id() << " column " << i;
            EXPECT_EQ(got.invalid, want.invalid) << format->id();
            EXPECT_EQ(got.underflow, want.underflow) << format->id();
        }
    }
}

TEST(Shard, SequenceRoundTripIncludingOddLengthsAndEmpty)
{
    const std::vector<std::vector<int>> sequences = {
        {0, 1, 2, 3, 2, 1, 0}, // odd length: padded record
        {5, 4, 3, 2},          // even length
        {},                    // empty sequence
        {7},
    };
    const std::string path = tempPath("sequences.shard");
    io::ShardWriter writer(path, io::ShardPayload::Sequences);
    for (const auto &seq : sequences)
        writer.addSequence(seq);
    writer.close();

    const io::ShardReader reader(path);
    EXPECT_EQ(reader.payload(), io::ShardPayload::Sequences);
    ASSERT_EQ(reader.size(), sequences.size());
    for (size_t i = 0; i < sequences.size(); ++i) {
        const auto view = reader.sequence(i);
        ASSERT_EQ(view.size(), sequences[i].size()) << "seq " << i;
        for (size_t j = 0; j < view.size(); ++j)
            EXPECT_EQ(view[j], sequences[i][j]);
    }
}

TEST(Shard, ZeroRecordFileRoundTrips)
{
    const std::string path = tempPath("empty.shard");
    io::ShardWriter writer(path, io::ShardPayload::Columns);
    writer.close();

    const io::ShardReader reader(path);
    EXPECT_EQ(reader.size(), 0u);
    EXPECT_EQ(reader.payloadBytes(), 0u);
    EXPECT_EQ(reader.fileBytes(),
              sizeof(io::ShardHeader) + io::shard_trailer_bytes);
}

TEST(Shard, TruncatedHeaderIsRejected)
{
    const std::string path = tempPath("trunc-header.shard");
    io::writeColumnShard(path, makeColumns());
    auto bytes = slurp(path);
    bytes.resize(10);
    spit(path, bytes);
    expectShardError(path, "truncated");
}

TEST(Shard, TruncatedPayloadIsRejected)
{
    const std::string path = tempPath("trunc-payload.shard");
    io::writeColumnShard(path, makeColumns());
    auto bytes = slurp(path);
    bytes.resize(bytes.size() - 64); // drop payload tail + trailer
    spit(path, bytes);
    expectShardError(path, "truncated");
}

TEST(Shard, WrongMagicIsRejected)
{
    const std::string path = tempPath("magic.shard");
    io::writeColumnShard(path, makeColumns());
    auto bytes = slurp(path);
    bytes[0] ^= 0xff;
    spit(path, bytes);
    expectShardError(path, "magic");
}

TEST(Shard, UnsupportedVersionIsRejected)
{
    const std::string path = tempPath("version.shard");
    io::writeColumnShard(path, makeColumns());
    auto bytes = slurp(path);
    const uint32_t future = 99;
    std::memcpy(bytes.data() + 8, &future, sizeof(future));
    spit(path, bytes);
    expectShardError(path, "version");
}

TEST(Shard, UnknownPayloadTagIsRejected)
{
    const std::string path = tempPath("tag.shard");
    io::writeColumnShard(path, makeColumns());
    auto bytes = slurp(path);
    const uint32_t bogus = 77;
    std::memcpy(bytes.data() + 12, &bogus, sizeof(bogus));
    spit(path, bytes);
    expectShardError(path, "payload tag");
}

TEST(Shard, CorruptedPayloadFailsTheCrc)
{
    const std::string path = tempPath("crc.shard");
    io::writeColumnShard(path, makeColumns());
    auto bytes = slurp(path);
    bytes[sizeof(io::ShardHeader) + 40] ^= 0x01; // one payload bit
    spit(path, bytes);
    expectShardError(path, "CRC");
}

TEST(Shard, RecordOverrunIsRejectedEvenWithAValidCrc)
{
    // Craft corruption the CRC cannot catch: inflate the first
    // record's read count, then recompute the trailer. Only the
    // record walk can reject this file.
    const std::string path = tempPath("overrun.shard");
    io::writeColumnShard(path, makeColumns());
    auto bytes = slurp(path);
    const uint32_t huge = 1u << 24;
    std::memcpy(bytes.data() + sizeof(io::ShardHeader), &huge,
                sizeof(huge));
    const size_t payload_bytes =
        bytes.size() - sizeof(io::ShardHeader) -
        io::shard_trailer_bytes;
    const uint64_t crc = io::crc32(
        0, bytes.data() + sizeof(io::ShardHeader), payload_bytes);
    std::memcpy(bytes.data() + bytes.size() - io::shard_trailer_bytes,
                &crc, sizeof(crc));
    spit(path, bytes);
    expectShardError(path, "overruns");
}

TEST(Shard, HugeHeaderItemCountIsRejectedNotAllocated)
{
    // The header sits outside the CRC, so a corrupted item_count
    // must be rejected by the payload bound — not surface as
    // bad_alloc from reserving 2^56 offsets.
    const std::string path = tempPath("itemcount.shard");
    io::writeColumnShard(path, makeColumns());
    auto bytes = slurp(path);
    const uint64_t huge = uint64_t{1} << 56;
    std::memcpy(bytes.data() + 16, &huge, sizeof(huge));
    spit(path, bytes);
    expectShardError(path, "item count");
}

TEST(Shard, MissingFileIsAShardError)
{
    expectShardError(tempPath("does-not-exist.shard"),
                     "cannot open");
}

TEST(Shard, WriterRejectsPayloadKindMisuse)
{
    io::ShardWriter columns(tempPath("misuse-cols.shard"),
                            io::ShardPayload::Columns);
    const std::vector<int> seq = {1, 2, 3};
    EXPECT_THROW(columns.addSequence(seq), std::logic_error);
    columns.close();

    io::ShardWriter sequences(tempPath("misuse-seqs.shard"),
                              io::ShardPayload::Sequences);
    EXPECT_THROW(sequences.add(pbd::Column{}), std::logic_error);
    sequences.close();
}

TEST(Shard, Crc32MatchesKnownVectors)
{
    // The classic check value of CRC-32/ISO-HDLC ("123456789").
    EXPECT_EQ(io::crc32(0, "123456789", 9), 0xcbf43926u);
    EXPECT_EQ(io::crc32(0, "", 0), 0u);
    // Resumable: one pass equals two chained passes.
    const uint32_t once = io::crc32(0, "streaming", 9);
    const uint32_t chained =
        io::crc32(io::crc32(0, "strea", 5), "ming", 4);
    EXPECT_EQ(once, chained);
}

} // namespace
