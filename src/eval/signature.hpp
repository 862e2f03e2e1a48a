// Signature acquisition: two matched sigma-delta modulators + counters
// (paper Fig. 4a), with the offset-handling arithmetic of section II.
//
// Offset handling modes:
//  - `none`      : raw counts; modulator offset corrupts the signatures.
//  - `calibrated`: a one-time grounded-input run measures each modulator's
//                  offset count rate, subtracted from later signatures.
//                  Preserves the +/-4 bound (plus a small calibration term
//                  4*MN/MN_cal folded into eps_bound).  Default.
//  - `chopped`   : M even; the second half of the evaluation inverts q_k
//                  and the counter subtracts.  Offset cancels exactly with
//                  no calibration, at the cost of a +/-8 bound.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "eval/square_wave.hpp"
#include "sd/modulator.hpp"
#include "sd/modulator_bank.hpp"

namespace bistna::eval {

enum class offset_mode { none, calibrated, chopped };

/// Per-sample signal source on the master-clock grid (argument = sample n).
using sample_source = std::function<double(std::size_t)>;

/// What one acquisition measures.  Every period is N = 96 samples, fixed
/// by the board's clocking (sim::timebase::oversampling_ratio).
struct acquisition_settings {
    std::size_t harmonic_k = 1;   ///< k (0 = DC measurement)
    std::size_t periods = 200;    ///< M; must be even for chopped mode
    offset_mode offset = offset_mode::calibrated;
};

/// Counter contents after an acquisition, plus the metadata the estimator
/// needs.  Counts are doubles because the calibrated mode subtracts a
/// fractional offset estimate.
struct signature_result {
    double i1 = 0.0;              ///< in-phase signature (offset-corrected)
    double i2 = 0.0;              ///< quadrature signature (offset-corrected)
    long long raw_i1 = 0;         ///< raw counter contents
    long long raw_i2 = 0;
    std::size_t total_samples = 0;///< M*N
    std::size_t harmonic_k = 0;
    std::size_t periods = 0;
    double eps_bound = 4.0;       ///< |eps| bound on each of i1, i2
    double vref = 0.7;            ///< modulator full scale used
};

/// The two offset count rates a grounded calibration measures.
struct offset_rates {
    double ch1 = 0.0;
    double ch2 = 0.0;
};

class calibration_share;

/// The acquisition engine: owns the matched modulator pair.
class signature_extractor {
public:
    signature_extractor(sd::modulator_params params, std::uint64_t seed);

    /// Grounded-input calibration run measuring each channel's offset count
    /// rate.  Longer runs make the residual calibration error negligible.
    void calibrate_offset(std::size_t periods = 4096);

    bool offset_calibrated() const noexcept { return calibrated_; }
    double offset_rate_ch1() const noexcept { return offset_rates_.ch1; }
    double offset_rate_ch2() const noexcept { return offset_rates_.ch2; }
    double calibration_samples() const noexcept { return calibration_samples_; }

    /// Current RNG stream position: where the next acquisition or
    /// calibration spawns its channels from.
    const bistna::rng& rng_state() const noexcept { return rng_; }

    /// Acquire signatures for one measurement.  Both integrators start from
    /// a residual state drawn from the extractor's RNG: silicon never
    /// starts a conversion from exactly zero.
    signature_result acquire(const sample_source& source, const acquisition_settings& settings);

    /// Acquire once with the largest M and snapshot the counters at each
    /// checkpoint (ascending period counts).  Valid because the bounded-
    /// state property holds at every prefix.  Not available in chopped mode.
    std::vector<signature_result> acquire_with_checkpoints(
        const sample_source& source, acquisition_settings settings,
        const std::vector<std::size_t>& checkpoint_periods);

    const sd::modulator_params& modulator_params() const noexcept { return params_; }

    // --- Batched lockstep path (sd::modulator_bank) -----------------------
    //
    // Lane i consumes extractors[i]'s RNG stream in exactly the order the
    // scalar member functions would, so each lane's result is bit-identical
    // to the scalar call on that extractor alone -- at any lane count and
    // under any lane permutation (lanes never interact).  The scalar
    // members above remain the reference implementation; batched
    // acquisitions run through batch_acquisition below.

    /// Batched grounded-input offset calibration; bit-identical per lane to
    /// extractors[i]->calibrate_offset(periods), RNG included:
    /// every lane spawns its two channels, I first.  A lane whose
    /// calibration_key `share` holds takes its rates.  One bank runs each
    /// distinct missing key once and publishes it to `share` and to every
    /// lane with that key.  The grounded run gives a lane's two channels
    /// the same program, so a noiseless key runs one channel and both rates
    /// take its count, and a noisy key's two channels are two lanes of the
    /// bank.  Returns the number of keys the bank ran.
    static std::size_t calibrate_offset_batch(std::span<signature_extractor* const> extractors,
                                              calibration_share& share,
                                              std::size_t periods = 4096);

private:
    friend class batch_acquisition;

    void validate(const acquisition_settings& settings) const;
    double initial_state();
    /// Mark the offset calibrated with these rates over `total` samples.
    void set_calibration(offset_rates rates, std::size_t total);

    /// The result of counters acc1 / acc2 after `periods` periods of
    /// `settings`: the raw counts and metadata, corrected and bounded as
    /// the offset mode prescribes.
    signature_result assemble(const acquisition_settings& settings, std::size_t periods,
                              long long acc1, long long acc2) const;

    sd::modulator_params params_;
    bistna::rng rng_;
    bool calibrated_ = false;
    offset_rates offset_rates_;
    double calibration_samples_ = 0.0;
};

/// One batched acquisition (every lane's matched modulator pair, stepped in
/// lockstep through sd::modulator_bank) that takes its M x N record in
/// pieces, so a caller can stream the record through it a block at a time
/// instead of holding the whole of it.  Three steps:
///   * setup (the constructor): the two channel banks, each lane spawning
///     its I then its Q channel and drawing their two initial states -- the
///     scalar acquire()'s RNG consumption, and the only use an acquisition
///     makes of its lanes' RNGs;
///   * feed: advance both banks over the next samples in one pair pass,
///     split at the chop point of a chopped acquisition;
///   * finish: the lanes' signature results once the whole record is fed.
/// Lane i's result is bit-identical to extractors[i]->acquire() over the
/// same samples however the record is cut into feeds: each channel draws
/// its noise per sample from its own spawned stream, every feed is a whole
/// number of periods and so starts at phase 0 of the square-wave sign
/// tables (one period, P = N/k entries, repeated over the feed), and the
/// counters are exact +/-1 sums.  The extractors must outlive the
/// acquisition.
class batch_acquisition {
public:
    /// Throws precondition_error on no lanes, a null lane, or settings a
    /// lane's acquire() rejects.
    batch_acquisition(std::span<signature_extractor* const> extractors,
                      const acquisition_settings& settings);

    std::size_t lanes() const noexcept { return extractors_.size(); }
    const acquisition_settings& settings() const noexcept { return settings_; }
    /// Samples still to feed, M x N before the first feed.
    std::size_t remaining() const noexcept { return total_ - fed_; }

    /// The next `count` samples, lane-major: lane i's sample n at
    /// lane_major[n * lanes() + i], the layout dut::state_space_bank emits.
    /// `count` must be a whole number of periods and at most remaining();
    /// otherwise throws precondition_error.
    void feed_lane_major(const double* lane_major, std::size_t count);

    /// The next `count` samples of one record every lane reads (the
    /// calibration path's cache-shared staircase), with no lane-major copy.
    void feed_shared(const double* record, std::size_t count);

    /// The lanes' signature results, corrected and bounded as the offset
    /// mode prescribes, and the banks' noise and clip counts into the
    /// telemetry registry.  Throws precondition_error before the whole
    /// record is fed.
    std::vector<signature_result> finish() const;

private:
    void feed(const double* samples, bool shared, std::size_t count);
    /// One pair pass over `count` samples, every sign times `sense`.
    void pass(const double* samples, bool shared, std::size_t count, double sense);

    std::vector<signature_extractor*> extractors_;
    acquisition_settings settings_;
    demod_reference demod_;
    std::size_t total_;
    std::size_t fed_ = 0;
    sd::modulator_bank in_phase_;
    sd::modulator_bank quadrature_;
    std::vector<double> acc1_;
    std::vector<double> acc2_;
};

} // namespace bistna::eval
