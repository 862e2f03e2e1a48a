#include "eval/acquire_plan.hpp"

#include "common/hash.hpp"

namespace bistna::eval {

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
