// Unit stream: one contiguous unit range of a lot manifest, run through a
// sweep-engine session and delivered as store records in GLOBAL UNIT
// ORDER -- the single seam behind every front-end that turns a manifest
// into frames.
//
// The shard worker (shard/worker.cpp) consumes it blocking and appends to
// a store file; the screening service (svc/server.cpp) consumes it
// non-blocking from its event loop and frames the records onto sockets.
// Because both run the *same* submission code -- same engine wiring, same
// per-unit record ids, same in-order delivery -- a service client's
// streamed records are bit-identical to the offline store path's by
// construction, not by parallel maintenance of two pipelines.
#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <optional>

#include "core/sweep_engine.hpp"
#include "shard/manifest.hpp"
#include "store/format.hpp"

namespace bistna::shard {

/// One delivered unit: its global index in the lot plus the exact record
/// the offline store path would have appended for it.
struct unit_record {
    std::uint64_t unit = 0; ///< global unit index within the manifest
    store::record record;
};

class unit_stream {
public:
    /// Submit units [first_unit, first_unit + units) of the manifest's
    /// workload.  `pool` shares a worker pool across streams, and, when it
    /// carries one, the calibration share: the service daemon passes one
    /// full handle to every request, so a request restores the grounded
    /// calibrations of the requests before it.  A bare queue converts to a
    /// pool-only handle whose engine keeps a private share (a cold
    /// request); an empty handle gives the engine a private pool sized by
    /// the manifest.  The records are the same bytes on any handle.
    ///
    /// `on_published` -- if set -- is a publication notifier invoked from
    /// worker threads AFTER newly completed items (or the terminal state,
    /// cancelled or failed jobs included) become visible to
    /// try_next()/finished(), at least once per publication and possibly
    /// coalescing several items into one call (no locks held; must be cheap
    /// and thread-safe): an event loop uses it to wake its poll, and a wake
    /// never races ahead of the state it advertises.
    unit_stream(const lot_manifest& manifest, std::uint64_t first_unit,
                std::uint64_t units, core::engine_pool pool = {},
                std::function<void()> on_published = nullptr);

    /// Cancels and drains the underlying job, so worker closures never
    /// outlive the engine this stream owns.  Non-blocking when the job is
    /// already terminal -- an event loop that destroys streams only once
    /// finished() holds never stalls here.
    ~unit_stream();

    unit_stream(const unit_stream&) = delete;
    unit_stream& operator=(const unit_stream&) = delete;

    std::uint64_t total_units() const noexcept { return units_; }

    /// Blocking pull of the next unit in global order; nullopt once every
    /// unit was delivered or -- after a cancel/failure -- at the first
    /// unit that will never complete.  Check error() when short.
    std::optional<unit_record> next();

    /// Non-blocking variant: nullopt when the next in-order unit has not
    /// completed yet OR never will.  Combine with finished(): terminal
    /// state + nullopt here means the stream is over.
    std::optional<unit_record> try_next();

    /// Units delivered through next()/try_next() so far.
    std::uint64_t delivered() const noexcept { return delivered_; }

    /// True once the underlying job is terminal (or the range was empty).
    bool finished() const;

    /// Request cooperative cancellation (idempotent, any thread).
    void cancel() noexcept;

    /// The first worker exception, if any.
    std::exception_ptr error() const;

private:
    struct impl;
    std::unique_ptr<impl> impl_;
    std::uint64_t units_ = 0;
    std::uint64_t delivered_ = 0;
};

} // namespace bistna::shard
