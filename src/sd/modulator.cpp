#include "sd/modulator.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/normal.hpp"

namespace bistna::sd {

modulator_params modulator_params::ideal() {
    modulator_params p;
    p.dc_gain_db = 300.0;
    p.settling_error = 0.0;
    p.integrator_swing = 1e9;
    p.input_offset = 0.0;
    p.comparator_offset = 0.0;
    p.comparator_hysteresis = 0.0;
    p.noise_rms = 0.0;
    return p;
}

double modulator_params::integrator_leak() const noexcept {
    return 1.0 - ci_over_cf / std::pow(10.0, dc_gain_db / 20.0);
}

double modulator_params::dc_gain_db_for_leak(double leak, double ci_over_cf) noexcept {
    return 20.0 * std::log10(ci_over_cf / leak);
}

void modulator_params::validate() const {
    BISTNA_EXPECTS(ci_over_cf > 0.0, "CI/CF must be positive");
    BISTNA_EXPECTS(vref > 0.0, "Vref must be positive");
    BISTNA_EXPECTS(integrator_swing > 0.0, "integrator swing must be positive");
    BISTNA_EXPECTS(noise_rms >= 0.0, "noise rms must be non-negative");
    BISTNA_EXPECTS(!std::isnan(dc_gain_db), "DC gain must not be NaN");
    BISTNA_EXPECTS(!std::isnan(settling_error), "settling error must not be NaN");
    BISTNA_EXPECTS(!std::isnan(input_offset), "input offset must not be NaN");
    BISTNA_EXPECTS(!std::isnan(comparator_offset), "comparator offset must not be NaN");
    BISTNA_EXPECTS(!std::isnan(comparator_hysteresis),
                   "comparator hysteresis must not be NaN");
}

modulator_params modulator_params::cmos035() {
    modulator_params p;
    p.dc_gain_db = 72.0;
    p.settling_error = 2e-5;
    p.integrator_swing = 2.0;
    p.input_offset = 1.2e-3; // representative op-amp offset
    p.comparator_offset = 2.0e-3;
    p.comparator_hysteresis = 0.5e-3;
    p.noise_rms = 60.0e-6; // sqrt(kT/C) of a ~1.15 pF sampling capacitor at 300 K
    return p;
}

sd_modulator::sd_modulator(modulator_params params, bistna::rng noise_rng)
    : params_(params),
      comparator_(params.comparator_offset, params.comparator_hysteresis),
      rng_(noise_rng) {
    params.validate();
    // Finite DC gain makes the integrator lossy.
    leak_ = params.integrator_leak();
    has_noise_ = params.draws_noise();
}

int sd_modulator::step(double input, bool modulation_positive) {
    // Comparator decides on the current state; 1-bit DAC feeds back.
    const int bit = comparator_.decide(state_);

    const double modulated = (modulation_positive ? input : -input) + params_.input_offset;
    // The noiseless path never touches the RNG (the ideal proof-object
    // modulator pays nothing for randomness it discards).
    const double increment =
        has_noise_ ? params_.ci_over_cf *
                         (modulated + params_.noise_rms * standard_normal(rng_) -
                          static_cast<double>(bit) * params_.vref)
                   : params_.ci_over_cf *
                         (modulated - static_cast<double>(bit) * params_.vref);

    double next = leak_ * state_ + increment * (1.0 - params_.settling_error);
    const double clipped = std::clamp(next, -params_.integrator_swing, params_.integrator_swing);
    if (clipped != next) {
        ++clip_events_;
    }
    state_ = clipped;
    return bit;
}

void sd_modulator::reset(double initial_state) {
    state_ = initial_state;
    comparator_.reset();
    clip_events_ = 0;
}

} // namespace bistna::sd
