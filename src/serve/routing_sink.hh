/**
 * @file
 * RoutingSink — demultiplexes one coalesced run into per-request
 * response records.
 *
 * The serve scheduler coalesces several small same-plan requests into
 * one Executor run over the concatenated columns (server.hh). The
 * engine neither knows nor cares: it delivers results through the
 * ordinary ResultSink channel. This sink is the demultiplexer: it
 * encodes every delivered item into the wire ResponseRecord form —
 * with exactly the flag bookkeeping ShardFileSink applies when
 * `pstat eval -o` persists the same run (skipped and certified bits
 * included), which is what makes a served response byte-identical to
 * the offline result shard — and finish()-time slicing by
 * [offset, count) routes the flat record vector back to the
 * individual requests.
 *
 * Bound via PlanInputs::sink, so it replaces the engine's own
 * accumulation: a coalesced run keeps its results only once, as
 * wire records.
 */

#ifndef PSTAT_SERVE_ROUTING_SINK_HH
#define PSTAT_SERVE_ROUTING_SINK_HH

#include <cstddef>
#include <span>
#include <vector>

#include "engine/result_sink.hh"
#include "serve/frame.hh"

namespace pstat::serve
{

/** One request's slice of a coalesced run: records [offset, offset
 *  + count) of the flat delivery order. */
struct RouteSlice
{
    size_t offset = 0; //!< first record index of this request
    size_t count = 0;  //!< how many records belong to it
};

/** The demultiplexing sink described in the file header. */
class RoutingSink final : public engine::ResultSink
{
  public:
    void
    consumeResults(const engine::WorkBlock &,
                   std::span<const engine::EvalResult> results) override
    {
        for (const engine::EvalResult &result : results)
            append(engine::encodeResultRecord(result));
    }

    void
    consumeScreened(const engine::WorkBlock &,
                    const engine::ScreenedPValueBatch &batch) override
    {
        for (size_t i = 0; i < batch.results.size(); ++i) {
            const uint32_t extra =
                (i < batch.skipped.size() && batch.skipped[i])
                    ? io::result_flag_skipped
                    : 0;
            append(engine::encodeResultRecord(batch.results[i], extra));
        }
    }

    void
    consumeAdaptive(const engine::WorkBlock &,
                    const engine::AdaptiveBatch &batch) override
    {
        for (size_t i = 0; i < batch.results.size(); ++i) {
            const engine::EscalationResult &item = batch.results[i];
            uint32_t extra = 0;
            if (i < batch.skipped.size() && batch.skipped[i])
                extra |= io::result_flag_skipped;
            if (item.certified)
                extra |= io::result_flag_certified;
            append(engine::encodeResultRecord(item.result, extra));
        }
    }

    /** Every record delivered so far, in item order. */
    const std::vector<ResponseRecord> &records() const
    {
        return records_;
    }

    /** Copy one request's [offset, offset + count) slice out. */
    std::vector<ResponseRecord>
    slice(const RouteSlice &route) const
    {
        const auto begin =
            records_.begin() +
            static_cast<std::ptrdiff_t>(route.offset);
        return {begin, begin + static_cast<std::ptrdiff_t>(route.count)};
    }

  private:
    void
    append(const io::ShardResultRecord &record)
    {
        ResponseRecord out;
        out.flags = record.flags;
        out.exp = record.exp;
        out.limbs = record.limbs;
        out.aux = record.aux;
        out.path.assign(record.path.begin(), record.path.end());
        records_.push_back(std::move(out));
    }

    std::vector<ResponseRecord> records_;
};

} // namespace pstat::serve

#endif // PSTAT_SERVE_ROUTING_SINK_HH
