#include "eval/evaluator.hpp"

#include "common/error.hpp"

namespace bistna::eval {

std::vector<std::size_t> thd_harmonics(std::size_t max_harmonic) {
    BISTNA_EXPECTS(max_harmonic >= 2, "THD needs at least harmonics 1..2");
    std::vector<std::size_t> harmonics;
    for (std::size_t k = 1; k <= max_harmonic; ++k) {
        if (demod_reference::alignment_ok(k)) {
            harmonics.push_back(k);
        }
    }
    return harmonics;
}

sinewave_evaluator::sinewave_evaluator(const evaluator_config& config)
    : config_(config), extractor_(config.modulator, config.seed) {}

void sinewave_evaluator::calibrate() {
    extractor_.calibrate_offset(config_.calibration_periods);
}

void sinewave_evaluator::ensure_calibrated() {
    if (config_.offset == offset_mode::calibrated && !extractor_.offset_calibrated()) {
        calibrate();
    }
}

acquisition_settings sinewave_evaluator::settings_for(std::size_t k,
                                                      std::size_t periods) const {
    acquisition_settings settings;
    settings.harmonic_k = k;
    settings.periods = periods;
    settings.offset = config_.offset;
    return settings;
}

dc_measurement sinewave_evaluator::measure_dc(const sample_source& source,
                                              std::size_t periods) {
    ensure_calibrated();
    const auto sig = extractor_.acquire(source, settings_for(0, periods));
    return estimate_dc(sig);
}

harmonic_measurement sinewave_evaluator::measure_harmonic(const sample_source& source,
                                                          std::size_t k,
                                                          std::size_t periods) {
    ensure_calibrated();
    const auto sig = extractor_.acquire(source, settings_for(k, periods));
    return estimate_harmonic(sig);
}

thd_measurement sinewave_evaluator::measure_thd(const sample_source& source,
                                                std::size_t max_harmonic,
                                                std::size_t periods) {
    std::vector<amplitude_measurement> amplitudes;
    for (const std::size_t k : thd_harmonics(max_harmonic)) {
        amplitudes.push_back(measure_harmonic(source, k, periods).amplitude);
    }
    return compute_thd_lenient(amplitudes);
}

std::vector<amplitude_measurement> sinewave_evaluator::amplitude_convergence(
    const sample_source& source, std::size_t k,
    const std::vector<std::size_t>& checkpoint_periods) {
    ensure_calibrated();
    auto settings = settings_for(k, checkpoint_periods.back());
    const auto sigs =
        extractor_.acquire_with_checkpoints(source, settings, checkpoint_periods);
    std::vector<amplitude_measurement> out;
    out.reserve(sigs.size());
    for (const auto& sig : sigs) {
        out.push_back(estimate_amplitude(sig));
    }
    return out;
}

} // namespace bistna::eval
