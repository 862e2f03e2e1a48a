#include "eval/calibration_share.hpp"

#include "common/hash.hpp"

namespace bistna::eval {

calibration_key::calibration_key(const sd::modulator_params& params,
                                 std::size_t total_samples, const bistna::rng& lane_stream)
    : params(params), total_samples(total_samples) {
    params.validate();
    if (params.draws_noise()) {
        stream = lane_stream;
    }
}

std::size_t calibration_share::key_hash::operator()(const calibration_key& key) const noexcept {
    std::uint64_t hash = fnv1a_offset_basis;
    if (key.stream) {
        // Equal streams draw equal words, so the next one stands in for
        // the stream's private state.
        bistna::rng probe = *key.stream;
        fnv1a_mix(hash, probe.next_u64());
    }
    fnv1a_mix(hash, static_cast<std::uint64_t>(key.total_samples));
    const sd::modulator_params& p = key.params;
    for (double field : {p.ci_over_cf, p.vref, p.dc_gain_db, p.settling_error,
                         p.integrator_swing, p.input_offset, p.comparator_offset,
                         p.comparator_hysteresis, p.noise_rms}) {
        fnv1a_mix(hash, field);
    }
    return static_cast<std::size_t>(hash);
}

std::optional<offset_rates> calibration_share::find(const calibration_key& key) const {
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    return it == entries_.end() ? std::nullopt : std::optional(it->second);
}

void calibration_share::store(const calibration_key& key, offset_rates rates) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!entries_.insert_or_assign(key, rates).second) {
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
