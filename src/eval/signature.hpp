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
    // members above remain the reference implementation.  Each call builds
    // one square-wave period of demodulation signs from demod_reference,
    // at most N entries, which the banks repeat over the record.

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

    /// Batched acquire over one lane-major record block: lane i's sample n
    /// lives at lane_major[n * extractors.size() + i] -- exactly the layout
    /// dut::state_space_bank emits, so render feeds measure with no
    /// transpose at all.
    static std::vector<signature_result> acquire_batch_lane_major(
        std::span<signature_extractor* const> extractors, const double* lane_major,
        const acquisition_settings& settings);

    /// Batched acquire over one record shared by every lane (the
    /// calibration path's cache-shared staircase tail): no per-lane copy of
    /// the broadcast input.
    static std::vector<signature_result> acquire_batch_shared(
        std::span<signature_extractor* const> extractors, std::span<const double> record,
        const acquisition_settings& settings);

private:
    void validate(const acquisition_settings& settings) const;
    double initial_state();
    /// Mark the offset calibrated with these rates over `total` samples.
    void set_calibration(offset_rates rates, std::size_t total);

    /// The result of counters acc1 / acc2 after `periods` periods of
    /// `settings`: the raw counts and metadata, corrected and bounded as
    /// the offset mode prescribes.
    signature_result assemble(const acquisition_settings& settings, std::size_t periods,
                              long long acc1, long long acc2) const;

    /// Shared skeleton of the batched acquires: validate, build the two
    /// lockstep banks with the scalar RNG consumption order, step both over
    /// `record` in one pair pass, or one per half when chopped (lane-major,
    /// or one record every lane shares when `shared_record`), assemble
    /// per-lane results.
    static std::vector<signature_result> acquire_batch_impl(
        std::span<signature_extractor* const> extractors,
        const acquisition_settings& settings, const double* record, bool shared_record);

    sd::modulator_params params_;
    bistna::rng rng_;
    bool calibrated_ = false;
    offset_rates offset_rates_;
    double calibration_samples_ = 0.0;
};

} // namespace bistna::eval
