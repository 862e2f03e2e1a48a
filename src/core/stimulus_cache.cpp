#include "core/stimulus_cache.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "common/hash.hpp"
#include "telemetry/metrics.hpp"

namespace bistna::core {

namespace {

/// Interned once; counter_add is a no-op unless a registry is attached.
struct cache_counters {
    telemetry::metric_id hits = telemetry::counter_id("engine.stimulus.hits");
    telemetry::metric_id misses = telemetry::counter_id("engine.stimulus.misses");
    telemetry::metric_id evictions = telemetry::counter_id("engine.stimulus.evictions");
};

const cache_counters& counters() {
    static const cache_counters ids;
    return ids;
}

} // namespace

std::size_t stimulus_key_hash::operator()(const stimulus_key& key) const noexcept {
    std::uint64_t hash = fnv1a_offset_basis;
    for (std::uint64_t word :
         {key.design_fingerprint, key.amplitude_bits, key.periods, key.settle_periods}) {
        fnv1a_mix(hash, word);
    }
    return static_cast<std::size_t>(hash);
}

stimulus_cache::stimulus_cache(std::size_t max_entries) : max_entries_(max_entries) {
    BISTNA_EXPECTS(max_entries > 0, "stimulus cache needs room for at least one record");
}

void stimulus_cache::evict_for_insert_locked() {
    while (entries_.size() >= max_entries_ && !insertion_order_.empty()) {
        // Oldest-first: sweep and screening access patterns reuse a key
        // heavily right after inserting it, so the oldest entry is the one
        // least likely to be touched again.  Callers already waiting on the
        // evicted future keep their own reference; only the cache forgets.
        entries_.erase(insertion_order_.front());
        insertion_order_.pop_front();
        telemetry::counter_add(counters().evictions);
    }
}

stimulus_cache::record_ptr stimulus_cache::get_or_render(const stimulus_key& key,
                                                         const render_fn& render) {
    BISTNA_EXPECTS(render != nullptr, "stimulus cache requires a render function");

    std::promise<record_ptr> promise;
    std::shared_future<record_ptr> pending;
    std::uint64_t own_id = 0;
    bool is_renderer = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = entries_.find(key);
        if (it != entries_.end()) {
            telemetry::counter_add(counters().hits);
            pending = it->second.future;
        } else {
            telemetry::counter_add(counters().misses);
            evict_for_insert_locked();
            own_id = next_entry_id_++;
            entries_.emplace(key, entry{promise.get_future().share(), own_id});
            insertion_order_.push_back(key);
            is_renderer = true;
        }
    }

    if (!is_renderer) {
        // Waits (outside the lock) for an in-flight render of the same key;
        // rethrows if that render failed -- its owner forgot the entry, so a
        // later call can retry.
        return pending.get();
    }

    try {
        record_ptr rendered = std::make_shared<const record>(render());
        promise.set_value(rendered);
        return rendered;
    } catch (...) {
        promise.set_exception(std::current_exception());
        std::lock_guard<std::mutex> lock(mutex_);
        // Erase only our own entry: it may already have been evicted and the
        // key re-inserted by a newer render.
        const auto it = entries_.find(key);
        if (it != entries_.end() && it->second.id == own_id) {
            entries_.erase(it);
            const auto pos =
                std::find(insertion_order_.begin(), insertion_order_.end(), key);
            if (pos != insertion_order_.end()) {
                insertion_order_.erase(pos);
            }
        }
        throw;
    }
}

std::size_t stimulus_cache::size() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

void stimulus_cache::clear() {
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.clear();
    insertion_order_.clear();
}

} // namespace bistna::core
