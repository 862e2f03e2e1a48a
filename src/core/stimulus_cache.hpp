// Shared cache of rendered stimulus records (extension).
//
// The system is clock-normalized: the generator emits the *same*
// discrete-time staircase at every master clock, so the pre-DUT record of a
// board render is identical at every Bode frequency up to timebase
// labeling.  Re-simulating the switched-capacitor generator per point is
// therefore pure waste -- this cache renders the staircase once per
// (generator design, amplitude, periods, settle periods) and hands the
// frequency-dependent DUT-filtering stage a shared immutable record.
//
// Concurrency: get_or_render is safe to call from any number of sweep
// workers.  The first caller of a key renders; concurrent callers of the
// same key block on a shared future instead of rendering redundantly, and
// callers of *different* keys never serialize against an in-flight render.
// Records are immutable once published (shared_ptr<const vector>), so
// readers need no further synchronization.  Capacity is bounded by FIFO
// eviction; eviction only drops the cache's reference, never a record a
// caller still holds.  Hits, misses and evictions are counted only in the
// telemetry registry (engine.stimulus.*), when one is attached.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace bistna::core {

/// Identity of one clock-normalized stimulus record.  The fingerprint
/// covers every generator parameter that shapes the waveform (see
/// gen::generator_params::fingerprint); amplitude, periods and settle are
/// the remaining render inputs -- the timebase deliberately is *not* part
/// of the key.
struct stimulus_key {
    std::uint64_t design_fingerprint = 0;
    std::uint64_t amplitude_bits = 0; ///< bit pattern of the programmed V_A diff
    std::uint64_t periods = 0;
    std::uint64_t settle_periods = 0;

    bool operator==(const stimulus_key&) const = default;
};

struct stimulus_key_hash {
    std::size_t operator()(const stimulus_key& key) const noexcept;
};

class stimulus_cache {
public:
    using record = std::vector<double>;
    using record_ptr = std::shared_ptr<const record>;
    using render_fn = std::function<record()>;

    /// Cache holding at most `max_entries` records (oldest-first eviction).
    /// A Bode sweep needs one entry; a screening batch needs one per die
    /// concurrently in flight.
    explicit stimulus_cache(std::size_t max_entries = 64);

    /// The record for `key`, rendering it via `render` exactly once on a
    /// miss.  Rethrows the render's exception to every caller waiting on it
    /// and forgets the entry, so a later call can retry.
    record_ptr get_or_render(const stimulus_key& key, const render_fn& render);

    /// Records currently resident.
    std::size_t size() const;
    std::size_t max_entries() const noexcept { return max_entries_; }
    void clear();

private:
    struct entry {
        std::shared_future<record_ptr> future;
        std::uint64_t id = 0; ///< distinguishes re-inserted keys on cleanup
    };

    void evict_for_insert_locked();

    std::size_t max_entries_;
    mutable std::mutex mutex_;
    std::unordered_map<stimulus_key, entry, stimulus_key_hash> entries_;
    std::deque<stimulus_key> insertion_order_;
    std::uint64_t next_entry_id_ = 1;
};

} // namespace bistna::core
