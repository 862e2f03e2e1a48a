#include "sc/analysis.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/math_util.hpp"

namespace bistna::sc {

namespace {

struct loop_coeffs {
    double alpha;
    double beta;
    double gamma;
    double delta;
};

loop_coeffs coeffs_of(const biquad_caps& caps, double input_cap) {
    const double bf = caps.b + caps.f;
    return loop_coeffs{caps.b / bf, caps.cin_scale * input_cap / bf, caps.a / bf,
                       caps.c / caps.d};
}

std::complex<double> denominator(const loop_coeffs& k, std::complex<double> zinv) {
    return (1.0 - zinv) * (1.0 - k.alpha * zinv) + k.delta * k.gamma * zinv;
}

} // namespace

std::complex<double> biquad_response(const biquad_caps& caps, double normalized_frequency,
                                     double input_cap) {
    const auto k = coeffs_of(caps, input_cap);
    const double theta = two_pi * normalized_frequency;
    const std::complex<double> zinv(std::cos(theta), -std::sin(theta));
    return -k.delta * k.beta / denominator(k, zinv);
}

resonance_info analyze_biquad(const biquad_caps& caps) {
    const auto k = coeffs_of(caps, 1.0);
    // Characteristic polynomial z^2 - (1 + alpha - delta*gamma) z + alpha.
    const double b1 = 1.0 + k.alpha - k.delta * k.gamma;
    const double b0 = k.alpha;
    const double discriminant = b1 * b1 - 4.0 * b0;
    BISTNA_EXPECTS(discriminant < 0.0, "biquad poles are real; not a resonator");

    resonance_info info;
    info.pole_radius = std::sqrt(b0);
    info.pole_angle = std::atan2(std::sqrt(-discriminant) / 2.0, b1 / 2.0);
    // Q of the equivalent continuous resonator: Q = -theta / (2 ln r).
    info.q_factor = info.pole_angle / (-2.0 * std::log(info.pole_radius));

    // Numeric peak search around the pole angle.
    double best_gain = 0.0;
    double best_freq = 0.0;
    const double center = info.pole_angle / two_pi;
    for (int i = -400; i <= 400; ++i) {
        const double f = center * (1.0 + static_cast<double>(i) / 2000.0);
        const double gain = std::abs(biquad_response(caps, f));
        if (gain > best_gain) {
            best_gain = gain;
            best_freq = f;
        }
    }
    info.peak_frequency = best_freq;
    info.peak_gain = best_gain;
    info.gain_at_16th = std::abs(biquad_response(caps, 1.0 / 16.0));
    return info;
}

biquad_caps design_biquad(const biquad_design_spec& spec) {
    BISTNA_EXPECTS(spec.normalized_f0 > 0.0 && spec.normalized_f0 < 0.5,
                   "resonance must lie below Nyquist");
    BISTNA_EXPECTS(spec.pole_radius > 0.0 && spec.pole_radius < 1.0,
                   "pole radius must be inside the unit circle");
    BISTNA_EXPECTS(spec.passband_gain > 0.0, "passband gain must be positive");
    BISTNA_EXPECTS(spec.total_cap_scale > 0.0, "cap scale must be positive");

    const double theta = two_pi * spec.normalized_f0;
    const double r = spec.pole_radius;
    const double s = spec.total_cap_scale; // B + F

    biquad_caps caps;
    caps.c = 1.0;
    caps.cin_scale = 2.0;
    // alpha = B/(B+F) = r^2  ->  B = r^2 (B+F).
    caps.b = r * r * s;
    caps.f = s - caps.b;
    // delta*gamma = 1 + r^2 - 2 r cos(theta); with gamma = A/s, delta = C/D.
    const double dg = 1.0 + r * r - 2.0 * r * std::cos(theta);

    // Passband gain |H(theta)| = delta*beta/|den| = (C/D)(cin_scale/s)/|den|,
    // where |den| depends only on (alpha, delta*gamma), both already fixed.
    const std::complex<double> zinv(std::cos(theta), -std::sin(theta));
    const std::complex<double> den =
        (1.0 - zinv) * (1.0 - (r * r) * zinv) + dg * zinv;
    const double den_mag = std::abs(den);
    // delta = gain*|den|*s/cin_scale -> D = C/delta.
    const double delta = spec.passband_gain * den_mag * s / caps.cin_scale;
    caps.d = caps.c / delta;
    caps.a = dg * s / delta;
    return caps;
}

} // namespace bistna::sc
