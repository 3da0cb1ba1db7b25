// Executor layer contracts: lane/grain resolution, index coverage,
// chunk-timing hooks, and exception drain + pool reuse.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "engine/executor.hh"

namespace
{

using pstat::engine::Executor;

TEST(Executor, LaneCountIsAtLeastOne)
{
    Executor serial(1);
    EXPECT_EQ(serial.laneCount(), 1u);
    Executor quad(4);
    EXPECT_EQ(quad.laneCount(), 4u);
}

TEST(Executor, GrainDefaultsToEighthPerLaneAndClampsToOne)
{
    Executor pool(4);
    // max(1, n / (lanes * 8))
    EXPECT_EQ(pool.grainFor(0), 1u);
    EXPECT_EQ(pool.grainFor(31), 1u);
    EXPECT_EQ(pool.grainFor(3200), 100u);
}

TEST(Executor, GrainOverrideWins)
{
    Executor pool(4, 7);
    EXPECT_EQ(pool.grainFor(3), 7u);
    EXPECT_EQ(pool.grainFor(100000), 7u);
}

TEST(Executor, ParallelForCoversEveryIndexExactlyOnce)
{
    Executor pool(4);
    const size_t n = 10007;
    std::vector<std::atomic<int>> hits(n);
    pool.parallelFor(n, [&](size_t i) {
        hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (size_t i = 0; i < n; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(Executor, ParallelForChunksPartitionsTheRange)
{
    Executor pool(3, 64);
    const size_t n = 1000;
    std::mutex mutex;
    std::vector<std::pair<size_t, size_t>> chunks;
    pool.parallelForChunks(n, [&](size_t begin, size_t end) {
        std::lock_guard<std::mutex> lock(mutex);
        chunks.emplace_back(begin, end);
    });
    std::sort(chunks.begin(), chunks.end());
    size_t expect = 0;
    for (const auto &[begin, end] : chunks) {
        EXPECT_EQ(begin, expect);
        EXPECT_LT(begin, end);
        EXPECT_LE(end - begin, 64u);
        expect = end;
    }
    EXPECT_EQ(expect, n);
}

TEST(Executor, ChunkHookSeesTheFullPartition)
{
    Executor pool(4, 32);
    std::mutex mutex;
    std::vector<std::pair<size_t, size_t>> seen;
    double min_wall = 0.0;
    pool.setChunkHook(
        [&](size_t begin, size_t end, double wall_ms) {
            std::lock_guard<std::mutex> lock(mutex);
            seen.emplace_back(begin, end);
            min_wall = std::min(min_wall, wall_ms);
        });
    const size_t n = 321;
    std::atomic<size_t> sum{0};
    pool.parallelFor(n, [&](size_t i) {
        sum.fetch_add(i, std::memory_order_relaxed);
    });
    pool.setChunkHook(nullptr);
    EXPECT_EQ(sum.load(), n * (n - 1) / 2);
    EXPECT_GE(min_wall, 0.0);
    std::sort(seen.begin(), seen.end());
    size_t expect = 0;
    for (const auto &[begin, end] : seen) {
        EXPECT_EQ(begin, expect);
        expect = end;
    }
    EXPECT_EQ(expect, n);
}

TEST(Executor, SerialFastPathStillReportsItsChunk)
{
    Executor pool(1);
    std::vector<std::pair<size_t, size_t>> seen;
    pool.setChunkHook([&](size_t begin, size_t end, double) {
        seen.emplace_back(begin, end);
    });
    pool.parallelFor(5, [](size_t) {});
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0], (std::pair<size_t, size_t>{0, 5}));

    seen.clear();
    pool.parallelForChunks(7, [](size_t, size_t) {});
    ASSERT_EQ(seen.size(), 1u);
    EXPECT_EQ(seen[0], (std::pair<size_t, size_t>{0, 7}));
}

TEST(Executor, AlignRoundsTheGrainUpToWholeTiles)
{
    Executor pool(4);
    // The auto grain 250 / 32 = 7 becomes one 8-column tile; an
    // empty or tiny batch still claims a whole tile.
    EXPECT_EQ(pool.grainFor(250, 8), 8u);
    EXPECT_EQ(pool.grainFor(3200, 8), 104u);
    EXPECT_EQ(pool.grainFor(0, 8), 8u);
    EXPECT_EQ(pool.grainFor(250, 0), pool.grainFor(250));
    // An override still counts items; align only widens it.
    Executor pinned(4, 13);
    EXPECT_EQ(pinned.grainFor(250, 8), 16u);
    EXPECT_EQ(pinned.grainFor(250, 1), 13u);
}

TEST(Executor, AlignedChunksPartitionOnTileBoundaries)
{
    constexpr size_t align = 8;
    for (const size_t grain : {size_t{0}, size_t{1}, size_t{3},
                               size_t{5}, size_t{13}}) {
        for (const unsigned lanes : {1u, 4u}) {
            Executor pool(lanes, grain);
            std::mutex mutex;
            std::vector<std::pair<size_t, size_t>> hooked;
            pool.setChunkHook([&](size_t begin, size_t end, double) {
                std::lock_guard<std::mutex> lock(mutex);
                hooked.emplace_back(begin, end);
            });
            for (const size_t n : {1, 7, 8, 9, 250}) {
                SCOPED_TRACE(::testing::Message()
                             << "lanes " << lanes << " grain " << grain
                             << " n " << n);
                hooked.clear();
                std::vector<std::pair<size_t, size_t>> chunks;
                pool.parallelForChunks(
                    n,
                    [&](size_t begin, size_t end) {
                        std::lock_guard<std::mutex> lock(mutex);
                        chunks.emplace_back(begin, end);
                    },
                    align);
                std::sort(chunks.begin(), chunks.end());
                size_t expect = 0;
                for (const auto &[begin, end] : chunks) {
                    EXPECT_EQ(begin, expect);
                    EXPECT_LT(begin, end);
                    EXPECT_EQ(begin % align, 0u);
                    if (end != n) {
                        EXPECT_EQ(end % align, 0u);
                    }
                    expect = end;
                }
                EXPECT_EQ(expect, n);
                std::sort(hooked.begin(), hooked.end());
                EXPECT_EQ(hooked, chunks);
            }
            pool.setChunkHook(nullptr);
        }
    }
}

TEST(Executor, AlignedBatchDrainsOnException)
{
    Executor pool(4, 3);
    EXPECT_THROW(pool.parallelForChunks(
                     250,
                     [](size_t begin, size_t end) {
                         if (begin <= 37 && 37 < end)
                             throw std::runtime_error("lane fault");
                     },
                     8),
                 std::runtime_error);
    std::atomic<size_t> covered{0};
    pool.parallelForChunks(
        250,
        [&](size_t begin, size_t end) {
            covered.fetch_add(end - begin, std::memory_order_relaxed);
        },
        8);
    EXPECT_EQ(covered.load(), 250u);
}

TEST(Executor, FirstExceptionPropagatesAndPoolSurvives)
{
    Executor pool(4, 1);
    EXPECT_THROW(pool.parallelFor(100,
                                  [&](size_t i) {
                                      if (i == 37)
                                          throw std::runtime_error(
                                              "lane fault");
                                  }),
                 std::runtime_error);
    // The pool must drain the faulted batch and stay usable.
    std::atomic<size_t> count{0};
    pool.parallelFor(50, [&](size_t) {
        count.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(count.load(), 50u);
}

TEST(Executor, HookSkipsFaultedChunks)
{
    Executor pool(2, 8);
    std::mutex mutex;
    std::vector<std::pair<size_t, size_t>> seen;
    pool.setChunkHook([&](size_t begin, size_t end, double) {
        std::lock_guard<std::mutex> lock(mutex);
        seen.emplace_back(begin, end);
    });
    EXPECT_THROW(pool.parallelFor(64,
                                  [](size_t i) {
                                      if (i == 20)
                                          throw std::runtime_error(
                                              "fault");
                                  }),
                 std::runtime_error);
    pool.setChunkHook(nullptr);
    // The chunk containing index 20 never completed, so no timing
    // sample may exist for it (phantom samples would skew per-chunk
    // profiles).
    for (const auto &[begin, end] : seen)
        EXPECT_FALSE(begin <= 20 && 20 < end)
            << "faulted chunk [" << begin << "," << end
            << ") reported a timing sample";
}

} // namespace
