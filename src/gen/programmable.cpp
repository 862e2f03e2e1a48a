#include "gen/programmable.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/math_util.hpp"

namespace bistna::gen {

namespace {

std::vector<double> distinct_magnitudes(const std::vector<double>& steps) {
    std::vector<double> levels;
    for (double s : steps) {
        const double magnitude = std::abs(s);
        if (magnitude < 1e-12) {
            continue; // "no capacitor selected"
        }
        const bool known = std::any_of(levels.begin(), levels.end(), [&](double l) {
            return std::abs(l - magnitude) < 1e-9;
        });
        if (!known) {
            levels.push_back(magnitude);
        }
    }
    std::sort(levels.begin(), levels.end());
    return levels;
}

} // namespace

step_pattern::step_pattern(std::vector<double> steps) : steps_(std::move(steps)) {
    BISTNA_EXPECTS(steps_.size() >= 4, "pattern needs at least 4 steps per period");
    for (double s : steps_) {
        // Nominal patterns are within [-1, 1]; drawn (mismatched) capacitor
        // values may exceed unity by the matching error, so allow ~2 %.
        BISTNA_EXPECTS(std::abs(s) <= 1.02, "step values must be within [-1, 1]");
    }
    levels_ = distinct_magnitudes(steps_);
}

step_pattern step_pattern::quantized_sine(std::size_t steps_per_period) {
    BISTNA_EXPECTS(steps_per_period >= 4 && steps_per_period % 2 == 0,
                   "quantized sine needs an even step count >= 4");
    std::vector<double> steps(steps_per_period);
    for (std::size_t n = 0; n < steps_per_period; ++n) {
        steps[n] = std::sin(two_pi * static_cast<double>(n) /
                            static_cast<double>(steps_per_period));
    }
    return step_pattern(std::move(steps));
}

step_pattern step_pattern::with_mismatch(sim::process_sampler& process) const {
    // One physical capacitor per distinct magnitude: every step sharing a
    // magnitude gets the same drawn value.
    std::vector<double> drawn_levels = process.matched_capacitors(levels_);
    std::vector<double> steps = steps_;
    for (double& s : steps) {
        const double magnitude = std::abs(s);
        if (magnitude < 1e-12) {
            continue;
        }
        for (std::size_t i = 0; i < levels_.size(); ++i) {
            if (std::abs(levels_[i] - magnitude) < 1e-9) {
                s = std::copysign(drawn_levels[i], s);
                break;
            }
        }
    }
    return step_pattern(std::move(steps));
}

namespace {

sc::biquad_caps design_for_pattern(const step_pattern& pattern,
                                   const programmable_generator::params& config) {
    sc::biquad_design_spec spec;
    spec.normalized_f0 = 1.0 / static_cast<double>(pattern.period());
    spec.pole_radius = config.pole_radius;
    spec.passband_gain = config.passband_gain;
    return sc::design_biquad(spec);
}

} // namespace

programmable_generator::programmable_generator(step_pattern pattern, const params& config)
    : pattern_(std::move(pattern)), caps_(design_for_pattern(pattern_, config)),
      biquad_(caps_, config.opamp1, config.opamp2, rng(config.seed).spawn()) {
    rng seed_rng(config.seed);
    sim::process_sampler process(config.process, seed_rng.spawn());
    pattern_ = pattern_.with_mismatch(process);
}

double programmable_generator::step() {
    const double cap = pattern_.step_value(step_index_);
    ++step_index_;
    return biquad_.step(va_diff_, cap);
}

std::vector<double> programmable_generator::generate(std::size_t count) {
    std::vector<double> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        out.push_back(step());
    }
    return out;
}

void programmable_generator::settle(std::size_t periods) {
    for (std::size_t i = 0; i < periods * pattern_.period(); ++i) {
        step();
    }
}

void programmable_generator::reset() {
    biquad_.reset();
    step_index_ = 0;
}

double programmable_generator::normalized_output_frequency() const {
    return 1.0 / static_cast<double>(pattern_.period());
}

} // namespace bistna::gen
