// The lanes of a batched sinewave evaluation (the lockstep companion of
// sinewave_evaluator).
//
// A production screening flow runs the *same* measurement program on every
// die: grounded-input offset calibration, then one acquisition per mask
// limit.  This layer holds one signature extractor per lane (die), shares
// the grounded calibrations between lanes (calibration_share), and sets up
// each acquisition across all requested lanes at once as one
// batch_acquisition, whose pair pass through the sd::modulator_bank is the
// per-sample evaluator loop -- the sweep-cost hot path -- as one
// vectorizable pass instead of N scalar ones.  The caller streams the
// record through the acquisition block by block (core::sweep_engine feeds
// one DUT render to every acquisition at its frequency) and estimates from
// the finished signatures.
//
// Every lane is bit-identical to a scalar sinewave_evaluator constructed
// with the same config and driven through the same call sequence: lanes
// own independent RNG streams and never interact, so results are invariant
// under lane count and lane permutation.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

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

    // Only the requested lanes (lane_ids) calibrate or acquire: lanes
    // outside them consume nothing (exactly like dice a scalar flow stopped
    // measuring), so screening can drop a lane that failed its self-test
    // without perturbing its neighbours.

    /// Offset-calibrate the requested lanes that still need it, when the
    /// offset mode calibrates -- what a scalar evaluator does on its first
    /// acquisition.  Adds the keys that ran the grounded loop to the
    /// eval.calibration.runs counter and the other lanes to
    /// eval.calibration.restores.
    void calibrate(std::span<const std::size_t> lane_ids);

    /// Set up harmonic k of the requested lanes over `periods` periods,
    /// calibrating them first as calibrate() does: the caller feeds the
    /// record (lane-major over lane_ids, or one shared record) and
    /// finishes it, then estimates from the signatures.  Setting up every
    /// acquisition of a program in program order before feeding any leaves
    /// each lane's RNG where measuring them one after another would.
    batch_acquisition begin_acquisition(std::span<const std::size_t> lane_ids, std::size_t k,
                                        std::size_t periods);

    signature_extractor& extractor(std::size_t lane);

private:
    std::vector<signature_extractor*> lane_pointers(std::span<const std::size_t> lane_ids);

    std::vector<evaluator_config> configs_;
    std::vector<signature_extractor> extractors_;
    calibration_share& calibration_share_;
};

} // namespace bistna::eval
