// Grounded-input offset calibrations shared between lanes (extension).
//
// The paper's calibrated offset mode runs one grounded-input calibration
// and reuses it ("this calibration only needs to be performed once").  Its
// two count rates are a pure function of a calibration_key, so a lane
// whose key the share holds takes the rates instead of running the
// grounded loop (signature_extractor::calibrate_offset_batch).
//
// An engine builds a private share unless its core::engine_pool hands it
// a shared one; the screening daemon keeps one for its lifetime, so a
// request reuses the calibrations of the requests before it.  The share
// therefore has a fixed cap and evicts oldest-first: an eviction costs one
// calibration at the next miss.
#pragma once

#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "common/rng.hpp"
#include "eval/signature.hpp"
#include "sd/modulator.hpp"

namespace bistna::eval {

/// Everything a grounded calibration's rates depend on: the modulator
/// params, the run length and, only when the params draw noise, the stream
/// position the lane's two channels spawn from -- a noiseless modulator
/// never reads its RNG.  Keys compare exactly: equal keys give
/// bit-identical rates.
struct calibration_key {
    /// `lane_stream` is the RNG the lane's two channels are about to spawn
    /// from; the key keeps it only when `params` draw noise.  Throws
    /// precondition_error on params sd::modulator_params::validate()
    /// rejects, so every key equals itself.
    calibration_key(const sd::modulator_params& params, std::size_t total_samples,
                    const bistna::rng& lane_stream);

    sd::modulator_params params;
    std::size_t total_samples; ///< periods x N
    std::optional<bistna::rng> stream;

    bool operator==(const calibration_key&) const noexcept = default;
};

/// Thread-safe, capped map from calibration_key to the two offset rates.
/// find/store race benignly: a key's rates are unique, so a double store
/// is idempotent and a miss merely costs one redundant calibration.
class calibration_share {
public:
    std::optional<offset_rates> find(const calibration_key& key) const;

    /// Publish the rates of `key`.  A new key past the size cap evicts the
    /// oldest one; a republished key keeps its place.
    void store(const calibration_key& key, offset_rates rates);

    std::size_t entries() const;

    /// Growth cap: screening shares one evaluator config across a whole
    /// lot, so a handful of entries covers real batches.  Mixed-seed noisy
    /// acquisition batches (a dictionary seeds every item) and a daemon's
    /// stream of requests cycle through it oldest-first.
    static constexpr std::size_t max_entries = 4096;

private:
    /// Picks the bucket: the params and length, plus the stream for a
    /// noisy key.
    struct key_hash {
        std::size_t operator()(const calibration_key& key) const noexcept;
    };

    mutable std::mutex mutex_;
    std::unordered_map<calibration_key, offset_rates, key_hash> entries_;
    std::deque<calibration_key> insertion_order_;
};

} // namespace bistna::eval
