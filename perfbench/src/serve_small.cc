/**
 * @file
 * serve-small: a `pstat serve` Server on a Unix socket, driven open
 * loop at two frozen offered rates with small binary64 requests (a
 * few shallow columns each). Compute is a small share of each round
 * trip, so framing, admission, coalescing and executor dispatch
 * dominate.
 *
 * Load generator: one thread releases request i at its intended time
 * start + i / rate, never waiting for replies, and drains responses
 * between sends; each response is timed from its request's intended
 * time, so a stall is charged to every request queued behind it (no
 * coordinated omission). The thread spins instead of sleeping, since
 * a sleeping sender wakes late on a virtual machine and that lateness
 * would be charged to the server; its CPU is left out of
 * cpu_us_per_item. Offered rates are constants, shares of a capacity
 * measured once; re-measuring it each run would load a faster build
 * harder. The load generator, the server's reader and its one-lane
 * scheduler are the busy threads (the acceptor only blocks in
 * accept): three of four cores.
 */

#include <poll.h>
#include <time.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "common.hh"
#include "engine/eval_engine.hh"
#include "engine/result_sink.hh"
#include "pbd/dataset.hh"
#include "serve/client.hh"
#include "serve/frame.hh"
#include "serve/server.hh"

namespace perfbench
{

namespace
{

using namespace pstat;

struct ServeConfig
{
    /**
     * Distinct requests, sent round robin. Their in-process answers
     * are most of the set-up; with 64 payloads the set-up was the
     * first round trips to a new daemon, whose time doubled from one
     * minute to the next on a virtual machine.
     */
    int payloads;
    int columns_per_request;
    double low_rps;          //!< frozen offered rates
    double high_rps;
    int warmup_requests;
    int setup_reps;
};

/**
 * The offered rates are 0.1x and 0.2x of 48,000 requests/s, the
 * highest rate at which one open-loop phase still kept its schedule on
 * a 4-vCPU virtual machine when they were frozen. Rates nearer that
 * capacity queued behind host preemption and read milliseconds apart
 * from run to run; at lower ones the server's threads sleep between
 * requests and their wake-ups set a noisier median (see README.md,
 * serve-small rates). They stay fixed when pstat gets faster.
 */
constexpr ServeConfig kFull{2048, 4, 4800.0, 9600.0, 50, 11};
constexpr ServeConfig kSmoke{8, 2, 200.0, 400.0, 20, 1};

/** Requests per window of the p99 estimate (its p99 is the 2nd). */
constexpr size_t kP99Window = 200;

/** p99 of an open-loop phase: the median p99 of 200-request windows. */
double
phaseP99(const std::vector<double> &latency_ms)
{
    return windowedP99(latency_ms,
                       std::max<size_t>(1, latency_ms.size() / kP99Window));
}

/** Open-loop requests per request traced in the span file. */
constexpr size_t kSpanStride = 16;

const char *const kSocket = "serve.sock";

engine::EvalPlan
servePlan()
{
    engine::EvalPlan plan;
    plan.kernel = engine::PlanKernel::PValue;
    plan.source = engine::PlanSource::Memory;
    plan.policy = engine::PlanPolicy::Fixed;
    plan.format_id = "binary64";
    plan.sum = engine::PlanSum::Plain;
    return plan;
}

/** One open-loop phase at a fixed offered rate. */
struct Phase
{
    std::vector<double> latency_ms; //!< from intended send time
    std::vector<double> lag_ms;     //!< actual - intended send time
    std::vector<double> send_ms;    //!< Client::send duration
    uint64_t base_id = 0;           //!< request id of send index 0
    Clock::time_point start;     //!< intended time of request 0
    Clock::duration interval{};  //!< 1 / offered rate
    size_t depth_max = 0;
    uint64_t bad_status = 0; //!< responses not Ok
    uint64_t mismatched = 0; //!< Ok, but not the in-process bytes
    uint64_t served = 0;  //!< ServerStats deltas over the phase
    uint64_t batches = 0;
    double coalesce() const
    {
        return batches > 0 ? static_cast<double>(served) /
                                 static_cast<double>(batches)
                           : 0.0;
    }
};

/** CPU seconds of the calling thread. */
double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/** Sequential round trips (Harness::closedLoop). */
struct ClosedLoop
{
    std::vector<double> rtt_ms;
    std::vector<double> send_ms; //!< Client::send duration
    /** Process CPU but the load generator's (the server's CPU). */
    double cpu_s = 0.0;
    double columns = 0.0;
};

class Harness
{
  public:
    Harness(const ServeConfig &config, uint64_t seed)
        : config_(config)
    {
        for (int p = 0; p < config.payloads; ++p) {
            pbd::DatasetConfig dataset;
            dataset.num_columns = config.columns_per_request;
            dataset.median_coverage = 40.0;
            dataset.coverage_sigma = 0.5;
            // Background columns only: a variant column with a deep
            // target has K in the thousands and would be no small
            // request.
            dataset.variant_fraction = 0.0;
            dataset.seed = seed * 104729ULL + static_cast<uint64_t>(p);
            serve::ServeRequest request;
            request.plan = servePlan();
            request.columns = pbd::makeDataset(dataset, "S").columns;
            pool_.push_back(std::move(request));
        }
        // The in-process run of each payload, as response bytes.
        engine::EvalEngine serial(1);
        for (const auto &request : pool_) {
            engine::PlanInputs inputs;
            inputs.columns = request.columns;
            const auto run = serial.run(request.plan, inputs);
            serve::ServeResponse want;
            want.status = serve::RequestStatus::Ok;
            want.kernel = static_cast<uint32_t>(request.plan.kernel);
            want.format_id = engine::resultFormatLabel(request.plan);
            for (const auto &result : run.results) {
                const io::ShardResultRecord record =
                    engine::encodeResultRecord(result);
                want.records.push_back({record.flags, record.exp,
                                        record.limbs, record.aux, {}});
            }
            expected_.push_back(serve::encodeResponseBody(want));
        }
        std::filesystem::remove(kSocket);
        serve::ServerConfig server_config;
        server_config.unix_path = kSocket;
        server_config.queue_capacity = 1u << 16;
        server_config.threads = 1;
        server_ = std::make_unique<serve::Server>(server_config);
        client_ = std::make_unique<serve::Client>(
            serve::Client::connectUnix(kSocket));
        for (int i = 0; i < config.warmup_requests; ++i)
            roundTrip(static_cast<size_t>(i) % pool_.size());
    }

    ~Harness()
    {
        client_.reset();
        server_->stop();
    }

    Harness(const Harness &) = delete;
    Harness &operator=(const Harness &) = delete;

    serve::Server &server() { return *server_; }
    const std::vector<serve::ServeRequest> &pool() const { return pool_; }

    /** One closed-loop round trip; the response is verified later. */
    serve::ServeResponse
    roundTrip(size_t payload, double *send_ms = nullptr)
    {
        auto &request = pool_[payload];
        request.id = ++next_id_;
        const auto t0 = Clock::now();
        client_->send(request);
        if (send_ms != nullptr)
            *send_ms = msBetween(t0, Clock::now());
        while (!readable()) {
        }
        return client_->receive();
    }

    /** True when `response` is byte-identical to the in-process run. */
    bool
    matches(serve::ServeResponse response, size_t payload) const
    {
        response.id = 0;
        return serve::encodeResponseBody(response) == expected_[payload];
    }

    Phase
    openLoop(double rate, double seconds)
    {
        const size_t n = std::max<size_t>(
            1, static_cast<size_t>(rate * seconds));
        Phase phase;
        phase.latency_ms.assign(n, 0.0);
        phase.lag_ms.assign(n, 0.0);
        phase.send_ms.assign(n, 0.0);
        const uint64_t base = next_id_ + 1;
        phase.base_id = base;
        next_id_ += n;
        phase.interval = std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(1.0 / rate));
        phase.start = Clock::now() + phase.interval;
        const serve::ServerStats before = server_->stats();

        // One spinning thread drains and verifies every waiting
        // response, then sends whatever is due, so neither side waits
        // on a wakeup. Draining first keeps a generator that runs behind
        // schedule from filling the socket buffers both ways and
        // deadlocking with the server.
        size_t sent = 0;
        size_t received = 0;
        while (received < n) {
            while (readable()) {
                serve::ServeResponse response = client_->receive();
                const auto done = Clock::now();
                const size_t i = response.id - base;
                if (response.id < base || i >= n)
                    throw std::runtime_error(
                        "serve-small: response to an unknown request");
                phase.latency_ms[i] =
                    msBetween(phase.start + phase.interval * i, done);
                if (response.status != serve::RequestStatus::Ok)
                    ++phase.bad_status;
                else if (!matches(std::move(response), i % pool_.size()))
                    ++phase.mismatched;
                ++received;
            }
            const auto now = Clock::now();
            const auto intended = phase.start + phase.interval * sent;
            if (sent < n && now >= intended) {
                phase.lag_ms[sent] = msBetween(intended, now);
                auto &request = pool_[sent % pool_.size()];
                request.id = base + sent;
                client_->send(request);
                phase.send_ms[sent] = msBetween(now, Clock::now());
                phase.depth_max =
                    std::max(phase.depth_max, server_->queueDepth());
                ++sent;
            }
        }
        const serve::ServerStats after = server_->stats();
        phase.served = after.served - before.served;
        phase.batches = after.batches - before.batches;
        return phase;
    }

    /**
     * Closed loop for `seconds`: sequential round trips, one request
     * in flight (the protocol-tax path), each response verified.
     */
    ClosedLoop
    closedLoop(double seconds, Report &report)
    {
        ClosedLoop loop;
        const double cpu0 = processCpuSeconds();
        const double own0 = threadCpuSeconds();
        const auto deadline =
            Clock::now() + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
        for (size_t i = 0; Clock::now() < deadline; ++i) {
            const size_t payload = i % pool_.size();
            double send = 0.0;
            const auto t0 = Clock::now();
            const auto response = roundTrip(payload, &send);
            loop.rtt_ms.push_back(msBetween(t0, Clock::now()));
            loop.send_ms.push_back(send);
            loop.columns +=
                static_cast<double>(pool_[payload].columns.size());
            report.check(response.status == serve::RequestStatus::Ok &&
                             matches(response, payload),
                         "serve-small: closed-loop response differs");
        }
        loop.cpu_s = (processCpuSeconds() - cpu0) -
                     (threadCpuSeconds() - own0);
        return loop;
    }

    /** Count a phase's responses into the report: status and bytes. */
    static void
    verify(const Phase &phase, Report &report, const char *name)
    {
        report.attempted(phase.latency_ms.size() - phase.bad_status -
                         phase.mismatched);
        report.failed(phase.bad_status, std::string("serve-small: ") +
                                            name + " responses not Ok");
        report.failed(phase.mismatched,
                      std::string("serve-small: ") + name +
                          " responses differ from in-process");
    }

  private:
    /** A response is waiting on the client socket (never blocks). */
    bool
    readable() const
    {
        pollfd fd{client_->fd(), POLLIN, 0};
        return ::poll(&fd, 1, 0) > 0;
    }

    ServeConfig config_;
    std::vector<serve::ServeRequest> pool_;
    std::vector<std::vector<uint8_t>> expected_;
    std::unique_ptr<serve::Server> server_;
    std::unique_ptr<serve::Client> client_;
    uint64_t next_id_ = 0;
};

} // namespace

void
runServeSmall(const Options &options, Report &report)
{
    const ServeConfig config = options.smoke ? kSmoke : kFull;
    // The daemon's set-up takes tens of milliseconds, all of which an
    // idle virtual machine would spend in its slow first second (see
    // settle): set up untimed for a while first.
    settle(options.smoke ? 0.0 : kSettleSeconds,
           [&] { Harness warm(config, options.seed); });
    std::unique_ptr<Harness> harness;
    const double setup_s = timedSetups(
        config.setup_reps,
        [&] { harness = std::make_unique<Harness>(config, options.seed); },
        [&] { harness.reset(); });
    settle(options.smoke ? 0.0 : kSettleSeconds, [&] {
        harness->verify(harness->openLoop(config.high_rps, 0.25), report,
                        "settle");
    });
    const double s = options.seconds;

    if (!options.trace) {
        const Phase low = harness->openLoop(config.low_rps, 0.4 * s);
        const Phase high = harness->openLoop(config.high_rps, 0.4 * s);
        harness->verify(low, report, "low");
        harness->verify(high, report, "high");

        const ClosedLoop closed = harness->closedLoop(0.2 * s, report);
        report.set("setup_s", setup_s);
        report.set("items_per_s", 1000.0 * config.columns_per_request /
                                       median(closed.rtt_ms));
        report.set("cpu_us_per_item", 1e6 * closed.cpu_s / closed.columns);
        report.set("p50_ms.low", quantile(low.latency_ms, 0.50));
        report.set("p50_ms.high", quantile(high.latency_ms, 0.50));
        std::printf("serve-small: %zu + %zu open-loop requests, p99 over "
                    "all of them %.3f / %.3f ms, generator lag p99 "
                    "%.3f / %.3f ms\n",
                    low.latency_ms.size(), high.latency_ms.size(),
                    quantile(low.latency_ms, 0.99),
                    quantile(high.latency_ms, 0.99),
                    quantile(low.lag_ms, 0.99),
                    quantile(high.lag_ms, 0.99));
    } else {
        // Standalone timed calls into the frame codec and the client.
        const auto &request = harness->pool().front();
        std::vector<double> encode_us;
        std::vector<double> decode_us;
        const auto response = harness->roundTrip(0);
        const std::vector<uint8_t> body =
            serve::encodeResponseBody(response);
        for (int r = 0; r < 2000; ++r) {
            const auto t0 = Clock::now();
            const auto bytes = serve::encodeRequestBody(request);
            const auto t1 = Clock::now();
            const auto decoded = serve::decodeResponseBody(body);
            const auto t2 = Clock::now();
            encode_us.push_back(1000.0 * msBetween(t0, t1));
            decode_us.push_back(1000.0 * msBetween(t1, t2));
            if (bytes.empty() || decoded.records.size() !=
                                     response.records.size())
                report.check(false, "serve-small: codec probe");
        }

        // Round trips against the in-process run of the same plan,
        // whose chunks and deliveries give the executor layer.
        const ClosedLoop closed = harness->closedLoop(0.1 * s, report);
        engine::EvalEngine serial(1);
        Tracer tracer(serial);
        BatchWindow inproc;
        size_t items = 0;
        for (int r = 0; r < 2000; ++r) {
            const auto &payload = harness->pool()[r % harness->pool().size()];
            engine::PlanInputs inputs;
            inputs.columns = payload.columns;
            const auto t0 = Clock::now();
            tracer.run(payload.plan, inputs, nullptr, true);
            inproc.high_ms.push_back(msBetween(t0, Clock::now()));
            items += payload.columns.size();
        }
        reportEngine(report, engineBreakdown(tracer.trace, 1),
                     items / inproc.high_ms.size(), inproc);
        report.set("serve.encode_us", median(encode_us));
        report.set("serve.decode_us", median(decode_us));
        report.set("serve.send_us", 1000.0 * median(closed.send_ms));
        report.set("serve.tax_ms",
                   median(closed.rtt_ms) - median(inproc.high_ms));

        // Open loop at both rates. The request spans are built after
        // each phase from the timings every phase records, so tracing
        // adds nothing to a phase: the trace.overhead.* metrics are 0
        // on this workload by construction and are left unset. One
        // request in kSpanStride gets spans, which keeps the trace file
        // to a few MB.
        const Phase low = harness->openLoop(config.low_rps, 0.4 * s);
        const Phase high = harness->openLoop(config.high_rps, 0.4 * s);
        Trace &trace = tracer.trace;
        for (const Phase *phase : {&low, &high}) {
            for (size_t i = 0; i < phase->latency_ms.size();
                 i += kSpanStride) {
                const double intended =
                    trace.at(phase->start + phase->interval * i);
                const uint64_t id = phase->base_id + i;
                const int64_t root = trace.add(
                    {"request", intended, intended + phase->latency_ms[i],
                     -1, id, 0});
                const double sent = intended + phase->lag_ms[i];
                trace.add({"loadgen.lag", intended, sent, root, id, 0});
                trace.add({"client.send", sent, sent + phase->send_ms[i],
                           root, id, 0});
            }
        }
        harness->verify(low, report, "low");
        harness->verify(high, report, "high");
        report.set("p50_ms.low", quantile(low.latency_ms, 0.50));
        report.set("p50_ms.high", quantile(high.latency_ms, 0.50));
        report.set("p99_ms.low", phaseP99(low.latency_ms));
        report.set("p99_ms.high", phaseP99(high.latency_ms));
        report.set("loadgen.lag_ms_p99",
                   std::max(quantile(low.lag_ms, 0.99),
                            quantile(high.lag_ms, 0.99)));
        report.set("serve.queue_depth_max",
                   static_cast<double>(
                       std::max(low.depth_max, high.depth_max)));
        const uint64_t batches = low.batches + high.batches;
        report.set("serve.coalesce",
                   batches > 0 ? static_cast<double>(low.served +
                                                     high.served) /
                                     static_cast<double>(batches)
                               : 0.0);
        const serve::ServerStats stats = harness->server().stats();
        report.set("serve.rejected", static_cast<double>(stats.rejected));
        report.set("serve.expired", static_cast<double>(stats.expired));
        report.set("serve.errors", static_cast<double>(stats.errors));
        report.set("trace.spans", static_cast<double>(trace.spans().size()));
        std::printf("serve-small: low / high rate: coalesce %.3f / %.3f, "
                    "queue depth max %zu / %zu, generator lag p99 %.3f / "
                    "%.3f ms\n",
                    low.coalesce(), high.coalesce(), low.depth_max,
                    high.depth_max, quantile(low.lag_ms, 0.99),
                    quantile(high.lag_ms, 0.99));
        std::printf("serve-small: p50 request %.3f ms = lag %.3f + send "
                    "%.3f + server, wire and receive %.3f (high rate)\n",
                    quantile(high.latency_ms, 0.5),
                    quantile(high.lag_ms, 0.5), quantile(high.send_ms, 0.5),
                    quantile(high.latency_ms, 0.5) -
                        quantile(high.lag_ms, 0.5) -
                        quantile(high.send_ms, 0.5));
        trace.write("trace_serve-small.jsonl");
    }

    harness.reset();
    std::filesystem::remove(kSocket);
}

} // namespace perfbench
