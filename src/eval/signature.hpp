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

struct acquisition_settings {
    std::size_t harmonic_k = 1;   ///< k (0 = DC measurement)
    std::size_t periods = 200;    ///< M; must be even for chopped mode
    std::size_t n_per_period = 96;///< oversampling ratio N (96 by construction)
    offset_mode offset = offset_mode::calibrated;
    bool randomize_initial_state = true; ///< silicon-like residual state per run
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
    std::size_t n_per_period = 0;
    std::size_t periods = 0;
    double eps_bound = 4.0;       ///< |eps| bound on each of i1, i2
    double vref = 0.7;            ///< modulator full scale used
};

/// Per-sample demodulation program of one acquisition: the q_k square-wave
/// controls of both channels as the exact +/-1 doubles the lane-major
/// kernels consume, plus the counter accumulation sign (negated in the
/// chopped second half).  A pure function of the settings, so the sweep
/// engine builds each table once (eval::demod_table_cache) and shares it
/// across every work item.
struct demod_tables {
    std::vector<double> q1_sign, q2_sign; ///< q_k controls as exact +/-1
    std::vector<double> acc_sign;         ///< counter accumulation sign
    std::size_t harmonic_k = 0;
    std::size_t n_per_period = 0;
    std::size_t periods = 0;
    bool chopped = false;

    static demod_tables build(const acquisition_settings& settings);
    bool matches(const acquisition_settings& settings) const noexcept;
};

/// One lane's post-calibration state, transplantable into any uncalibrated
/// extractor constructed with the same modulator params -- and, when those
/// draw noise, whose RNG stream still sits at the snapshot's origin.
/// Calibration consumes two spawns and produces rates that are a pure
/// function of (params, length) for a noiseless modulator, which never
/// reads its RNG, and of (params, stream position, length) for a noisy one,
/// so restoring is bit-identical to the lane running calibrate_offset
/// itself.
struct calibration_snapshot {
    sd::modulator_params params;
    bistna::rng rng_before{0}; ///< stream position the calibration consumed from
    double offset_rate_1 = 0.0;
    double offset_rate_2 = 0.0;
    double calibration_samples = 0.0;
};

/// The acquisition engine: owns the matched modulator pair.
class signature_extractor {
public:
    signature_extractor(sd::modulator_params params, std::uint64_t seed);

    /// Grounded-input calibration run measuring each channel's offset count
    /// rate.  Longer runs make the residual calibration error negligible.
    void calibrate_offset(std::size_t periods = 4096, std::size_t n_per_period = 96);

    bool offset_calibrated() const noexcept { return calibrated_; }
    double offset_rate_ch1() const noexcept { return offset_rate_1_; }
    double offset_rate_ch2() const noexcept { return offset_rate_2_; }
    double calibration_samples() const noexcept { return calibration_samples_; }

    /// Current RNG stream position (calibration-snapshot bookkeeping).
    const bistna::rng& rng_state() const noexcept { return rng_; }

    /// Adopt a calibration snapshot captured on a lane with identical
    /// params (and, when they draw noise, an identical stream position) and
    /// advance this lane's RNG by the two spawns calibrate_offset makes --
    /// bit-identical to running calibrate_offset here.  Returns false (and
    /// changes nothing) when this lane is already calibrated or does not
    /// match the snapshot's origin.
    bool try_restore_calibration(const calibration_snapshot& snapshot) noexcept;

    /// Acquire signatures for one measurement.
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
    // members above remain the reference implementation.  Demodulation
    // signs come from a prebuilt demod_tables (eval::demod_table_cache).

    /// Batched grounded-input offset calibration; bit-identical per lane to
    /// extractors[i]->calibrate_offset(periods, n_per_period).  All lanes
    /// run in one bank.  The grounded run gives a lane's two channels the
    /// same program, so a noiseless lane runs one channel and both rates
    /// take its count, and a noisy lane's two channels are two lanes of the
    /// bank.  Each lane still spawns twice, I first.
    static void calibrate_offset_batch(std::span<signature_extractor* const> extractors,
                                       std::size_t periods = 4096,
                                       std::size_t n_per_period = 96);

    /// Batched acquire over one lane-major record block: lane i's sample n
    /// lives at lane_major[n * extractors.size() + i] -- exactly the layout
    /// dut::state_space_bank emits, so render feeds measure with no
    /// transpose at all.
    static std::vector<signature_result> acquire_batch_lane_major(
        std::span<signature_extractor* const> extractors, const double* lane_major,
        const acquisition_settings& settings, const demod_tables& tables);

    /// Batched acquire over one record shared by every lane (the
    /// calibration path's cache-shared staircase tail): no per-lane copy of
    /// the broadcast input.
    static std::vector<signature_result> acquire_batch_shared(
        std::span<signature_extractor* const> extractors, std::span<const double> record,
        const acquisition_settings& settings, const demod_tables& tables);

private:
    void validate(const acquisition_settings& settings) const;
    double initial_state();

    /// Shared skeleton of the batched acquires: validate, build the two
    /// lockstep banks with the scalar RNG consumption order, step both over
    /// `record` in one pair pass (lane-major, or one record every lane
    /// shares when `shared_record`), assemble per-lane results.
    static std::vector<signature_result> acquire_batch_impl(
        std::span<signature_extractor* const> extractors,
        const acquisition_settings& settings, const demod_tables& tables,
        const double* record, bool shared_record);

    sd::modulator_params params_;
    bistna::rng rng_;
    bool calibrated_ = false;
    double offset_rate_1_ = 0.0;
    double offset_rate_2_ = 0.0;
    double calibration_samples_ = 0.0;
};

} // namespace bistna::eval
