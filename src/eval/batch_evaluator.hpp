// Batched sinewave evaluation across a lot of rendered records (the
// lockstep companion of sinewave_evaluator).
//
// A production screening flow runs the *same* measurement program on every
// die: grounded-input offset calibration, then one acquisition per mask
// limit.  This layer holds one signature extractor per lane (die) and runs
// each stage across all lanes at once through the sd::modulator_bank, so
// the per-sample evaluator loop -- the sweep-cost hot path -- executes as
// one vectorizable pass instead of N scalar ones.
//
// Every lane is bit-identical to a scalar sinewave_evaluator constructed
// with the same config and driven through the same call sequence: lanes
// own independent RNG streams and never interact, so results are invariant
// under lane count and lane permutation.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "eval/estimator.hpp"
#include "eval/evaluator.hpp"
#include "eval/signature.hpp"

namespace bistna::eval {

class calibration_share;

class batch_evaluator {
public:
    /// One config per lane.  Seeds and modulator params may differ per
    /// lane; offset mode and calibration_periods must be uniform (the
    /// lockstep stages share one demodulation program).
    /// Lanes take the offset rates `calibration` holds for their
    /// calibration_key instead of re-running the grounded calibration --
    /// the dominant per-item cost of a screening flow or a dictionary
    /// build.  It is bit-identical to calibrating per lane, and must
    /// outlive the evaluator.
    batch_evaluator(std::vector<evaluator_config> configs, calibration_share& calibration);

    std::size_t lanes() const noexcept { return configs_.size(); }

    // Records arrive as one lane-major block -- row i of sample n at
    // lane_major[n * lane_ids.size() + i], exactly what
    // dut::state_space_bank emits -- or as a single record shared by every
    // requested lane (the cache-shared calibration staircase).  Only the
    // requested lanes acquire: lanes outside lane_ids consume nothing
    // (exactly like dice a scalar flow stopped measuring), so screening can
    // drop a lane that failed its self-test without perturbing its
    // neighbours.

    /// Amplitude + phase of harmonic k, eqs. (4)-(5), of the requested
    /// lanes over a lane-major record block.
    std::vector<harmonic_measurement> measure_harmonic_lanes_lane_major(
        std::span<const std::size_t> lane_ids, const double* lane_major, std::size_t k,
        std::size_t periods);

    /// THD from harmonics 1..max_harmonic of the requested lanes over a
    /// lane-major record block (skipping ks that violate the alignment
    /// condition, like the scalar evaluator).
    std::vector<thd_measurement> measure_thd_lanes_lane_major(
        std::span<const std::size_t> lane_ids, const double* lane_major,
        std::size_t max_harmonic, std::size_t periods);

    /// Harmonic k of the requested lanes over one shared record.
    std::vector<harmonic_measurement> measure_harmonic_lanes_shared(
        std::span<const std::size_t> lane_ids, std::span<const double> record,
        std::size_t k, std::size_t periods);

    signature_extractor& extractor(std::size_t lane);

private:
    acquisition_settings settings_for(std::size_t k, std::size_t periods) const;
    /// Offset calibration of the requested lanes that still need it, on
    /// their first acquisition when the offset mode calibrates.  Adds the
    /// keys that ran the grounded loop to the eval.calibration.runs
    /// counter and the other lanes to eval.calibration.restores.
    void ensure_calibrated(std::span<signature_extractor* const> lanes);
    std::vector<signature_extractor*> lane_pointers(std::span<const std::size_t> lane_ids);

    std::vector<evaluator_config> configs_;
    std::vector<signature_extractor> extractors_;
    calibration_share& calibration_share_;
};

} // namespace bistna::eval
