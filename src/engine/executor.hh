/**
 * @file
 * The executor layer: a persistent chunk-claiming worker pool.
 *
 * Extracted from EvalEngine so the scheduling machinery is a
 * standalone, reusable runtime component (the bottom layer of the
 * source → executor → sink decomposition in docs/ARCHITECTURE.md).
 * Lanes claim chunks of consecutive indices under one mutex
 * acquisition (auto-sized to ~8 chunks per lane, PSTAT_GRAIN
 * overridable), the calling thread participates as a lane, and the
 * first exception a chunk throws drains the batch and rethrows on
 * the calling thread. An optional per-chunk timing hook observes
 * every successfully executed chunk with its wall time — the
 * instrumentation point for per-stage cost models — and is invoked
 * under its own mutex, so an accumulating hook needs no atomics.
 */

#ifndef PSTAT_ENGINE_EXECUTOR_HH
#define PSTAT_ENGINE_EXECUTOR_HH

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pstat::engine
{

/**
 * A persistent worker pool distributing index ranges over lanes.
 *
 * Exactly the scheduling core EvalEngine has always run on (the
 * engine now delegates here): grain-chunked claiming, an exception
 * drain that abandons the faulted batch's remainder, and reuse
 * across batches without respawning threads. Not copyable; the
 * destructor joins every worker.
 */
class Executor
{
  public:
    /**
     * Observer of one executed chunk: the half-open index range it
     * covered and its wall time in milliseconds. Called once per
     * successfully completed chunk (a chunk whose body threw is not
     * reported — its work did not happen), serialized under an
     * internal mutex so the hook may accumulate without atomics.
     */
    using ChunkHook =
        std::function<void(size_t begin, size_t end, double wall_ms)>;

    /**
     * @param num_threads lane count; 0 picks the PSTAT_THREADS
     *        environment override when set (strictly parsed, clamped
     *        to 1024 with a diagnostic), else
     *        std::thread::hardware_concurrency(). The calling thread
     *        also participates, so 1 means no extra threads.
     * @param grain scheduling grain: how many consecutive indices a
     *        lane claims per work-mutex acquisition. 0 (the default)
     *        picks the PSTAT_GRAIN environment override when set,
     *        else auto-sizes per batch to max(1, n / (lanes * 8)).
     */
    explicit Executor(unsigned num_threads = 0, size_t grain = 0);
    /** Drains the pool and joins every worker. */
    ~Executor();

    Executor(const Executor &) = delete;            //!< not copyable
    Executor &operator=(const Executor &) = delete; //!< not copyable

    /** Total lanes (workers + the calling thread). */
    unsigned laneCount() const { return lanes_; }

    /**
     * The scheduling grain an n-item batch would run with: the
     * constructor/PSTAT_GRAIN override when set, else the auto size
     * max(1, n / (lanes * 8)), rounded up to a whole multiple of
     * @p align (0 counts as 1). The grain always counts items; align
     * only widens it to whole tiles. Exposed so the grain resolution
     * is testable and benches can report it.
     */
    size_t
    grainFor(size_t n, size_t align = 1) const
    {
        size_t grain = grain_override_;
        if (grain == 0) {
            grain = n / (size_t{lanes_} * 8);
            if (grain == 0)
                grain = 1;
        }
        if (align > 1)
            grain = (grain + align - 1) / align * align;
        return grain;
    }

    /**
     * Run fn(i) for every i in [0, n), distributed over the pool.
     * Blocks until all items finish; exceptions from fn are rethrown
     * on the calling thread. fn must be safe to call concurrently
     * for distinct i.
     */
    void parallelFor(size_t n,
                     const std::function<void(size_t)> &fn);

    /**
     * Run fn(begin, end) over a partition of [0, n): each call is
     * one claimed chunk of consecutive indices (grainFor(n, align)
     * items, so a lane sees whole multi-item spans, not single
     * indices, and every chunk but the last starts and ends on a
     * multiple of @p align). The serial fast path is one fn(0, n)
     * call. Blocks until the batch drains; exceptions from fn
     * abandon that chunk's remainder and are rethrown on the calling
     * thread. fn must be safe to call concurrently for disjoint
     * chunks.
     */
    void parallelForChunks(
        size_t n, const std::function<void(size_t, size_t)> &fn,
        size_t align = 1);

    /**
     * Install (or, with an empty function, remove) the per-chunk
     * timing hook. Must not be called while a batch is running —
     * install instrumentation between batches, not during them. The
     * serial fast paths report their single [0, n) chunk too, so the
     * hook always observes a complete partition of every successful
     * batch.
     */
    void setChunkHook(ChunkHook hook);

  private:
    void workerLoop();
    void runBatch(size_t n,
                  const std::function<void(size_t, size_t)> &fn,
                  size_t align);
    bool claimChunk(size_t &begin, size_t &end);
    void drainChunks(const std::function<void(size_t, size_t)> &fn);
    void runHooked(const std::function<void(size_t, size_t)> &fn,
                   size_t begin, size_t end);

    unsigned lanes_ = 1;
    size_t grain_override_ = 0; //!< 0 = auto-size per batch
    std::vector<std::thread> workers_;

    std::mutex mutex_;
    std::condition_variable work_cv_;
    std::condition_variable done_cv_;
    const std::function<void(size_t, size_t)> *job_ = nullptr;
    size_t next_ = 0;
    size_t total_ = 0;
    size_t batch_grain_ = 1; //!< resolved grain of the running batch
    size_t in_flight_ = 0;
    uint64_t epoch_ = 0;
    bool stop_ = false;
    std::exception_ptr first_error_;

    ChunkHook hook_;        //!< written only between batches
    std::mutex hook_mutex_; //!< serializes hook invocations
};

} // namespace pstat::engine

#endif // PSTAT_ENGINE_EXECUTOR_HH
