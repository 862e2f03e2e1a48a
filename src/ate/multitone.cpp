#include "ate/multitone.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "sim/timebase.hpp"

namespace bistna::ate {

multitone_source::multitone_source(std::vector<tone> tones, double dc)
    : tones_(std::move(tones)), dc_(dc) {
    for (const tone& t : tones_) {
        BISTNA_EXPECTS(t.amplitude >= 0.0, "tone amplitude must be non-negative");
        BISTNA_EXPECTS(2 * t.harmonic < sim::timebase::oversampling_ratio,
                       "tone harmonic exceeds the Nyquist limit of the sample grid");
    }
}

void multitone_source::set_noise(double rms_volts, std::uint64_t seed) {
    BISTNA_EXPECTS(rms_volts >= 0.0, "noise rms must be non-negative");
    noise_rms_ = rms_volts;
    noise_rng_ = bistna::rng(seed);
}

double multitone_source::sample(std::size_t n) const {
    double x = dc_;
    const double base = two_pi * static_cast<double>(n) /
                        static_cast<double>(sim::timebase::oversampling_ratio);
    for (const tone& t : tones_) {
        x += t.amplitude * std::sin(static_cast<double>(t.harmonic) * base + t.phase_rad);
    }
    if (noise_rms_ > 0.0) {
        x += noise_rng_.gaussian(0.0, noise_rms_);
    }
    return x;
}

eval::sample_source multitone_source::as_source() const {
    return [this](std::size_t n) { return sample(n); };
}

multitone_source multitone_source::fig9_stimulus() {
    return multitone_source({tone{1, 0.2, 0.3}, tone{2, 0.02, 1.1}, tone{3, 0.002, 2.2}});
}

} // namespace bistna::ate
