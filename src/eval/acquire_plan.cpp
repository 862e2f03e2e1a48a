#include "eval/acquire_plan.hpp"

#include "common/hash.hpp"

namespace bistna::eval {

namespace {

std::uint64_t tables_key(const acquisition_settings& settings) {
    std::uint64_t hash = fnv1a_offset_basis;
    fnv1a_mix(hash, static_cast<std::uint64_t>(settings.harmonic_k));
    fnv1a_mix(hash, static_cast<std::uint64_t>(settings.n_per_period));
    fnv1a_mix(hash, static_cast<std::uint64_t>(settings.periods));
    fnv1a_mix(hash, std::uint64_t{settings.offset == offset_mode::chopped ? 1U : 0U});
    return hash;
}

std::size_t table_bytes(const demod_tables& tables) {
    return (tables.q1_sign.size() + tables.q2_sign.size() + tables.acc_sign.size()) *
           sizeof(double);
}

} // namespace

std::shared_ptr<const demod_tables>
demod_table_cache::get(const acquisition_settings& settings) {
    const std::uint64_t key = tables_key(settings);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = entries_.find(key);
        if (it != entries_.end() && it->second->matches(settings)) {
            return it->second;
        }
    }
    // Build outside the lock (tables for long acquisitions are sizeable).
    auto built = std::make_shared<const demod_tables>(demod_tables::build(settings));
    const std::size_t bytes = table_bytes(*built);
    std::lock_guard<std::mutex> lock(mutex_);
    if (auto it = entries_.find(key); it != entries_.end()) {
        // A concurrent builder published identical tables first; a shape
        // whose key collides with a resident one is served uncached.
        return it->second->matches(settings) ? it->second : built;
    }
    while (!insertion_order_.empty() && resident_bytes_ + bytes > max_bytes) {
        const auto oldest = entries_.find(insertion_order_.front());
        resident_bytes_ -= table_bytes(*oldest->second);
        entries_.erase(oldest);
        insertion_order_.pop_front();
    }
    entries_.emplace(key, built);
    insertion_order_.push_back(key);
    resident_bytes_ += bytes;
    return built;
}

std::uint64_t calibration_share::key_hash(const sd::modulator_params& params,
                                          std::uint64_t seed, std::size_t periods,
                                          std::size_t n_per_period) {
    std::uint64_t hash = fnv1a_offset_basis;
    if (params.draws_noise()) {
        fnv1a_mix(hash, seed);
    }
    fnv1a_mix(hash, static_cast<std::uint64_t>(periods));
    fnv1a_mix(hash, static_cast<std::uint64_t>(n_per_period));
    fnv1a_mix(hash, params.ci_over_cf);
    fnv1a_mix(hash, params.vref);
    fnv1a_mix(hash, params.dc_gain_db);
    fnv1a_mix(hash, params.settling_error);
    fnv1a_mix(hash, params.integrator_swing);
    fnv1a_mix(hash, params.input_offset);
    fnv1a_mix(hash, params.comparator_offset);
    fnv1a_mix(hash, params.comparator_hysteresis);
    fnv1a_mix(hash, params.noise_rms);
    return hash;
}

std::shared_ptr<const calibration_snapshot>
calibration_share::find(const sd::modulator_params& params, std::uint64_t seed,
                        std::size_t periods, std::size_t n_per_period) {
    const std::uint64_t key = key_hash(params, seed, periods, n_per_period);
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(key);
    if (it == entries_.end() || !(it->second->params == params) ||
        it->second->calibration_samples != static_cast<double>(periods * n_per_period)) {
        return nullptr;
    }
    return it->second;
}

void calibration_share::store(std::uint64_t seed, std::size_t periods,
                              std::size_t n_per_period, calibration_snapshot snapshot) {
    const std::uint64_t key = key_hash(snapshot.params, seed, periods, n_per_period);
    auto shared = std::make_shared<const calibration_snapshot>(std::move(snapshot));
    std::lock_guard<std::mutex> lock(mutex_);
    if (!entries_.insert_or_assign(key, std::move(shared)).second) {
        return; // a republished key keeps its place
    }
    insertion_order_.push_back(key);
    if (entries_.size() > max_entries) {
        entries_.erase(insertion_order_.front());
        insertion_order_.pop_front();
    }
}

std::size_t calibration_share::entries() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

} // namespace bistna::eval
