#include "core/network_analyzer.hpp"

#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "common/units.hpp"
#include "eval/square_wave.hpp"

namespace bistna::core {

namespace {

/// Deterministic generator-hold systematics at the fundamental (k = 1), the
/// one harmonic a Bode point measures.
///
/// The DUT filters the *continuous-time* staircase: its k-th component is
/// the generator sequence scaled by sinc(k/16) and delayed by half a
/// generator-clock period (3 f_eva samples).  The calibration path instead
/// samples the staircase directly; holding each value over 6 f_eva samples
/// multiplies its k-th DT component by the Dirichlet factor
/// sin(k pi/16)/(6 sin(k pi/96)) with a 2.5-sample delay.  The *difference*
/// -- a 0.5-sample excess lag and a ~0.0013 dB droop at k = 1 -- is what the
/// measured transfer picks up; the analyzer removes it like an instrument's
/// fixture de-embedding.
struct hold_systematics {
    double gain;      ///< amplitude ratio (DUT-path component / cal-path component)
    double phase_rad; ///< excess phase of the DUT path (negative = lag)
};

/// A constant of the board, computed on first use.
const hold_systematics& hold_effect() {
    static const hold_systematics effect = [] {
        const std::size_t harmonic_k = 1;
        const double k = static_cast<double>(harmonic_k);
        const std::size_t hold = sim::timebase::generator_divider; // 6
        const std::size_t n = sim::timebase::oversampling_ratio;   // 96

        // DUT-path factor: continuous-time ZOH of the unit generator
        // sequence at harmonic k: sinc(k/16) with a 3-sample (half
        // generator period) lag.
        const double zoh_gain =
            sinc(k / static_cast<double>(sim::timebase::steps_per_period));
        const double zoh_phase = -k * pi * static_cast<double>(hold) / static_cast<double>(n);

        // Calibration-path factor: demodulate the *known* unit staircase
        // numerically over one period.  This captures both the Dirichlet
        // droop/lag of the 6-sample hold and the square-wave demodulator's
        // pickup of the hold images at (16 j +/- k) f_wave -- the dominant
        // deterministic systematic of the scheme (~1 % at k = 1).
        const eval::demod_reference demod(harmonic_k);
        double s1 = 0.0;
        double s2 = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            const double x = std::sin(two_pi * k *
                                      static_cast<double>((i / hold) * hold) /
                                      static_cast<double>(n));
            s1 += x * static_cast<double>(demod.in_phase_sign(i));
            s2 += x * static_cast<double>(demod.quadrature_sign(i));
        }
        s1 /= static_cast<double>(n);
        s2 /= static_cast<double>(n);
        const double c1_mag = std::abs(demod.c1());
        const double cal_gain = std::hypot(s1, s2) / c1_mag;
        const double cal_phase = std::atan2(s1, s2) + std::arg(demod.c1());

        return hold_systematics{zoh_gain / cal_gain, zoh_phase - cal_phase};
    }();
    return effect;
}

/// Point-estimate phase with an honest full-circle interval, used whenever
/// the eq. (5) uncertainty box encloses the origin (amplitude too small to
/// pin the phase): the deep-stopband output case and the dead-stimulus
/// calibration case share this exact convention.
eval::phase_measurement fallback_phase(const eval::signature_result& sig) {
    const eval::demod_reference demod(sig.harmonic_k);
    eval::phase_measurement phase;
    phase.harmonic_k = sig.harmonic_k;
    phase.radians = wrap_phase(std::atan2(sig.i1, sig.i2) + std::arg(demod.c1()));
    phase.bounds_radians = interval::centered(phase.radians, pi);
    return phase;
}

} // namespace

stimulus_calibration make_stimulus_calibration(const eval::harmonic_measurement& harmonic) {
    if (harmonic.phase.has_value()) {
        return stimulus_calibration{harmonic.amplitude, *harmonic.phase};
    }
    // Amplitude too small to pin the phase (a healthy stimulus never gets
    // here, but a catastrophically faulted die can): report the point
    // estimate with an honest full-circle interval instead of aborting, so
    // lot screening records the die as failing and moves on.
    return stimulus_calibration{harmonic.amplitude, fallback_phase(harmonic.signature)};
}

frequency_point assemble_frequency_point(hertz f_wave, const stimulus_calibration& input,
                                         const eval::harmonic_measurement& output,
                                         const dut::device_under_test& dut) {
    // Deep in the stopband the eq. (5) box may reach the origin; report the
    // point estimate with an honest full-circle interval (the huge error
    // bands of the paper's Fig. 10b beyond the DUT's resolvable range).
    const eval::phase_measurement output_phase =
        output.phase.has_value() ? *output.phase : fallback_phase(output.signature);

    frequency_point point;
    point.f_wave = f_wave;

    // Gain: ratio of output to input amplitude (interval quotient, eq. (4)).
    // A stimulus whose guaranteed amplitude interval reaches zero (a dead
    // calibration path on a hard-faulted die) admits no finite gain bound;
    // report the honest unbounded interval rather than aborting.
    const double gain = output.amplitude.volts / input.amplitude.volts;
    const interval gain_bounds =
        input.amplitude.bounds_volts.lo() > 0.0
            ? output.amplitude.bounds_volts / input.amplitude.bounds_volts
            : interval(0.0, std::numeric_limits<double>::infinity());

    // Phase: difference of the two phase measurements (eq. (5)).
    double phase = output_phase.radians - input.phase.radians;
    interval phase_bounds = output_phase.bounds_radians - input.phase.bounds_radians;

    // De-embed the generator's zero-order hold.
    const hold_systematics& hold = hold_effect();
    const double gain_correction = 1.0 / hold.gain;
    const double phase_correction = -hold.phase_rad;
    point.gain_db = amplitude_ratio_to_db(gain * gain_correction);
    point.gain_db_bounds =
        interval(amplitude_ratio_to_db(gain_bounds.lo() * gain_correction),
                 amplitude_ratio_to_db(gain_bounds.hi() * gain_correction));

    phase += phase_correction;
    phase_bounds = phase_bounds + phase_correction;
    // Report phase unwrapped into (-2pi, 0] like a Bode plot of a stable
    // low-pass (0 to -180 degrees for a 2nd-order DUT).
    double wrapped = wrap_phase(phase);
    if (wrapped > 0.5) { // small positive noise near 0 stays near 0
        wrapped -= two_pi;
    }
    const double shift = wrapped - phase;
    point.phase_deg = rad_to_deg(wrapped);
    point.phase_deg_bounds = interval(rad_to_deg(phase_bounds.lo() + shift),
                                      rad_to_deg(phase_bounds.hi() + shift));

    // Ground truth from the drawn DUT instance.
    const auto ideal = dut.ideal_response(f_wave.value);
    point.ideal_gain_db = amplitude_ratio_to_db(std::abs(ideal));
    double ideal_phase = std::arg(ideal);
    if (ideal_phase > 0.5) {
        ideal_phase -= two_pi;
    }
    point.ideal_phase_deg = rad_to_deg(ideal_phase);
    return point;
}

network_analyzer::network_analyzer(demonstrator_board& board, analyzer_settings settings)
    : board_(board), settings_(settings), evaluator_(settings.evaluator) {}

const stimulus_calibration& network_analyzer::calibrate() {
    if (!calibration_) {
        // Clock-normalized system: any master clock yields the same DT
        // stimulus, so calibrate at a convenient one.
        const auto tb = sim::timebase::for_wave_frequency(kilohertz(1.0));
        auto record = board_.render(tb, settings_.periods, signal_path::calibration,
                                    settings_.settle_periods);
        const auto source = demonstrator_board::as_source(std::move(record));
        calibration_ =
            make_stimulus_calibration(evaluator_.measure_harmonic(source, 1, settings_.periods));
    }
    return *calibration_;
}

frequency_point network_analyzer::measure_point(hertz f_wave) {
    const stimulus_calibration& input = calibrate();
    const auto tb = sim::timebase::for_wave_frequency(f_wave);

    auto record = board_.render(tb, settings_.periods, signal_path::through_dut,
                                settings_.settle_periods);
    const auto source = demonstrator_board::as_source(std::move(record));
    const auto output = evaluator_.measure_harmonic(source, 1, settings_.periods);
    return assemble_frequency_point(f_wave, input, output, board_.dut());
}

std::vector<frequency_point> network_analyzer::bode_sweep(
    const std::vector<hertz>& frequencies) {
    std::vector<frequency_point> points;
    points.reserve(frequencies.size());
    for (hertz f : frequencies) {
        points.push_back(measure_point(f));
    }
    return points;
}

distortion_result network_analyzer::measure_distortion(hertz f_wave,
                                                       std::size_t max_harmonic) {
    const std::vector<std::size_t> harmonics = eval::thd_harmonics(max_harmonic);
    const auto tb = sim::timebase::for_wave_frequency(f_wave);
    auto record = board_.render(tb, settings_.distortion_periods, signal_path::through_dut,
                                settings_.settle_periods);
    const auto source = demonstrator_board::as_source(std::move(record));

    distortion_result result;
    result.f_wave = f_wave;

    std::vector<eval::amplitude_measurement> amplitudes;
    for (const std::size_t k : harmonics) {
        amplitudes.push_back(
            evaluator_.measure_harmonic(source, k, settings_.distortion_periods).amplitude);
    }
    BISTNA_EXPECTS(amplitudes.size() >= 2, "not enough measurable harmonics");

    result.fundamental_volts = amplitudes.front().volts;
    const auto& fund = amplitudes.front();
    for (std::size_t i = 1; i < amplitudes.size(); ++i) {
        const auto& h = amplitudes[i];
        result.harmonic_dbc.push_back(amplitude_ratio_to_db(h.volts / fund.volts));
        result.harmonic_dbc_bounds.push_back(
            interval(amplitude_ratio_to_db(h.bounds_volts.lo() / fund.bounds_volts.hi()),
                     amplitude_ratio_to_db(h.bounds_volts.hi() / fund.bounds_volts.lo())));
    }
    result.thd_db = eval::compute_thd_lenient(amplitudes).db;
    return result;
}

} // namespace bistna::core
