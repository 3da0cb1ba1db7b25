#include "engine/executor.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "engine/env.hh"

namespace pstat::engine
{

namespace
{

/** Upper clamp for PSTAT_THREADS: far above any sane machine. */
constexpr long max_thread_override = 1024;

} // namespace

Executor::Executor(unsigned num_threads, size_t grain)
{
    if (num_threads == 0) {
        if (const char *env = std::getenv("PSTAT_THREADS")) {
            // Full-string validation: "8x" or an out-of-range value
            // is a configuration error worth a diagnostic, not a
            // silently mangled lane count.
            const auto parsed = parseLong(env);
            if (!parsed || *parsed <= 0) {
                std::fprintf(stderr,
                             "pstat: ignoring invalid PSTAT_THREADS="
                             "\"%s\" (want a positive integer)\n",
                             env);
            } else if (*parsed > max_thread_override) {
                // The clamp gets the same observability as the
                // garbage-input path: a silently reduced lane count
                // is indistinguishable from a scheduler bug.
                std::fprintf(stderr,
                             "pstat: clamping PSTAT_THREADS=%ld to "
                             "%ld lanes\n",
                             *parsed, max_thread_override);
                num_threads =
                    static_cast<unsigned>(max_thread_override);
            } else {
                num_threads = static_cast<unsigned>(*parsed);
            }
        }
    }
    if (num_threads == 0) {
        num_threads = std::thread::hardware_concurrency();
        if (num_threads == 0)
            num_threads = 1;
    }
    lanes_ = num_threads;

    grain_override_ = grain;
    if (grain_override_ == 0) {
        if (const char *env = std::getenv("PSTAT_GRAIN")) {
            const auto parsed = parseLong(env);
            if (!parsed || *parsed <= 0) {
                std::fprintf(stderr,
                             "pstat: ignoring invalid PSTAT_GRAIN="
                             "\"%s\" (want a positive integer)\n",
                             env);
            } else {
                grain_override_ = static_cast<size_t>(*parsed);
            }
        }
    }

    workers_.reserve(num_threads - 1);
    for (unsigned i = 1; i < num_threads; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

Executor::~Executor()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
Executor::setChunkHook(ChunkHook hook)
{
    // No batch can be running (documented contract), so the only
    // synchronization needed is against a concurrent hook invocation
    // from a *previous* batch — impossible, since runBatch does not
    // return until every lane's drainChunks call has.
    std::lock_guard<std::mutex> lock(hook_mutex_);
    hook_ = std::move(hook);
}

/**
 * Execute one chunk, timing it when a hook is installed. The hook
 * only fires after fn returns normally: a thrown chunk's work did
 * not happen, so reporting it would leak a phantom timing sample.
 */
void
Executor::runHooked(const std::function<void(size_t, size_t)> &fn,
                    size_t begin, size_t end)
{
    if (!hook_) {
        fn(begin, end);
        return;
    }
    const auto start = std::chrono::steady_clock::now();
    fn(begin, end);
    const std::chrono::duration<double, std::milli> elapsed =
        std::chrono::steady_clock::now() - start;
    std::lock_guard<std::mutex> lock(hook_mutex_);
    hook_(begin, end, elapsed.count());
}

/**
 * Claim the next chunk of [begin, end) indices under one mutex
 * acquisition; false when the batch is drained.
 */
bool
Executor::claimChunk(size_t &begin, size_t &end)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (next_ >= total_)
        return false;
    begin = next_;
    const size_t room = total_ - begin;
    end = begin + (batch_grain_ < room ? batch_grain_ : room);
    next_ = end;
    return true;
}

/**
 * One lane's share of the running batch: claim chunks until the
 * batch drains. An exception from fn records the first error and
 * drains the batch (the remaining items of the faulted chunk are
 * abandoned along with every unclaimed chunk, exactly like per-index
 * claiming would abandon the unclaimed indices).
 */
void
Executor::drainChunks(const std::function<void(size_t, size_t)> &fn)
{
    size_t begin = 0;
    size_t end = 0;
    while (claimChunk(begin, end)) {
        try {
            runHooked(fn, begin, end);
        } catch (...) {
            std::lock_guard<std::mutex> lock(mutex_);
            if (!first_error_)
                first_error_ = std::current_exception();
            // Drain the batch so everyone can finish.
            next_ = total_;
        }
    }
}

void
Executor::workerLoop()
{
    uint64_t seen_epoch = 0;
    for (;;) {
        const std::function<void(size_t, size_t)> *job = nullptr;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            work_cv_.wait(lock, [&] {
                return stop_ || (job_ != nullptr &&
                                 epoch_ != seen_epoch);
            });
            if (stop_)
                return;
            seen_epoch = epoch_;
            job = job_;
            ++in_flight_;
        }
        drainChunks(*job);
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --in_flight_;
        }
        done_cv_.notify_all();
    }
}

void
Executor::parallelFor(size_t n,
                      const std::function<void(size_t)> &fn)
{
    if (n == 0)
        return;
    // Small batches (or a 1-lane executor) skip the pool entirely.
    if (n == 1 || lanes_ == 1) {
        runHooked(
            [&fn](size_t begin, size_t end) {
                for (size_t i = begin; i < end; ++i)
                    fn(i);
            },
            0, n);
        return;
    }
    const std::function<void(size_t, size_t)> chunk_fn =
        [&fn](size_t begin, size_t end) {
            for (size_t i = begin; i < end; ++i)
                fn(i);
        };
    runBatch(n, chunk_fn, 1);
}

void
Executor::parallelForChunks(
    size_t n, const std::function<void(size_t, size_t)> &fn,
    size_t align)
{
    if (n == 0)
        return;
    // The serial fast path hands the whole range over as one chunk —
    // the widest possible span for the SoA batch kernels.
    if (n == 1 || lanes_ == 1) {
        runHooked(fn, 0, n);
        return;
    }
    runBatch(n, fn, align);
}

void
Executor::runBatch(size_t n,
                   const std::function<void(size_t, size_t)> &fn,
                   size_t align)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        job_ = &fn;
        next_ = 0;
        total_ = n;
        batch_grain_ = grainFor(n, align);
        first_error_ = nullptr;
        ++epoch_;
    }
    work_cv_.notify_all();

    // The calling thread is a lane too.
    drainChunks(fn);

    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [&] { return in_flight_ == 0; });
    job_ = nullptr;
    if (first_error_)
        std::rethrow_exception(
            std::exchange(first_error_, nullptr));
}

} // namespace pstat::engine
