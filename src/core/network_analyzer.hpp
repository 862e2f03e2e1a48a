// The network analyzer (paper Fig. 1, sections II-III.C).
//
// Measures a DUT's gain and phase at f_wave = f_master/96 by comparing the
// evaluator's harmonic measurement of the DUT output against a one-time
// calibration measurement of the stimulus itself (DUT bypassed).  Because
// the whole system is clock-normalized -- the generator emits the *same*
// discrete-time waveform at every master clock -- a single calibration
// serves every frequency point, exactly as the paper states ("this
// calibration only needs to be performed once").
//
// The generator's zero-order hold adds a deterministic sinc(k/16) droop
// and k*pi/16 excess phase between the sampled stimulus and the
// continuous-time wave the DUT filters; the analyzer removes this known
// systematic, the same role as an instrument's fixture de-embedding.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "common/interval.hpp"
#include "core/board.hpp"
#include "eval/evaluator.hpp"

namespace bistna::core {

struct analyzer_settings {
    std::size_t periods = 200;        ///< M for Bode points (paper Fig. 10a/b)
    std::size_t distortion_periods = 400; ///< M for harmonic distortion (Fig. 10c)
    std::size_t settle_periods = 32;
    eval::evaluator_config evaluator;
};

/// Calibration-path measurement of the stimulus.
struct stimulus_calibration {
    eval::amplitude_measurement amplitude;
    eval::phase_measurement phase;
};

/// One Bode point with guaranteed error bounds (from eqs. (4)-(5)).
struct frequency_point {
    hertz f_wave{0.0};
    double gain_db = 0.0;
    interval gain_db_bounds;
    double phase_deg = 0.0;
    interval phase_deg_bounds;
    double ideal_gain_db = 0.0;  ///< ground truth of the drawn DUT instance
    double ideal_phase_deg = 0.0;
};

/// Wrap a calibration-path harmonic measurement as a stimulus calibration.
/// When the phase is undetermined (amplitude too small for M periods --
/// only a catastrophically faulted stimulus path gets there) the point
/// estimate is kept with a full-circle interval, so screening can record
/// the die as failing instead of aborting.  Shared by the scalar analyzer
/// and the batched paths.
stimulus_calibration make_stimulus_calibration(const eval::harmonic_measurement& harmonic);

/// Assemble one Bode point from its two harmonic measurements -- the
/// stimulus calibration and the DUT-path output.  This is the pure
/// arithmetic tail of network_analyzer::measure_point (interval gain
/// quotient, phase difference/unwrap, hold de-embedding, drawn-instance
/// ground truth), factored out so the batched sweep/screening pipeline
/// produces bit-identical points from lockstep acquisitions.
frequency_point assemble_frequency_point(hertz f_wave, const stimulus_calibration& input,
                                         const eval::harmonic_measurement& output,
                                         const dut::device_under_test& dut);

/// Harmonic-distortion readout (Fig. 10c).
struct distortion_result {
    hertz f_wave{0.0};
    double fundamental_volts = 0.0;
    std::vector<double> harmonic_dbc;          ///< H2.. relative to fundamental
    std::vector<interval> harmonic_dbc_bounds;
    double thd_db = 0.0;
};

class network_analyzer {
public:
    network_analyzer(demonstrator_board& board, analyzer_settings settings);

    /// Characterize the stimulus through the calibration path (cached).
    const stimulus_calibration& calibrate();

    /// Inject a previously measured calibration instead of running the
    /// calibration path (the system is clock-normalized, so one stimulus
    /// characterization is valid for every analyzer on the same board
    /// design; used by the sweep engine to share one calibration across a
    /// batch).
    void set_calibration(stimulus_calibration calibration) {
        calibration_ = std::move(calibration);
    }

    /// Measure the DUT at one frequency point, dividing by the one
    /// calibration (calibrate() runs first when none is held).
    frequency_point measure_point(hertz f_wave);

    /// Bode sweep over a list of frequencies (Fig. 10a/b).
    std::vector<frequency_point> bode_sweep(const std::vector<hertz>& frequencies);

    /// Harmonic distortion of the DUT output at one frequency (Fig. 10c).
    /// Measures harmonics 1..max_harmonic that satisfy the alignment rule.
    distortion_result measure_distortion(hertz f_wave, std::size_t max_harmonic = 3);

    const analyzer_settings& settings() const noexcept { return settings_; }
    demonstrator_board& board() noexcept { return board_; }

    /// The evaluator this analyzer measures with (diagnostics read its
    /// extractor's calibrated offset rates -- a direct probe of the
    /// modulator pair's health).
    eval::sinewave_evaluator& evaluator() noexcept { return evaluator_; }

private:
    demonstrator_board& board_;
    analyzer_settings settings_;
    eval::sinewave_evaluator evaluator_;
    std::optional<stimulus_calibration> calibration_;
};

} // namespace bistna::core
