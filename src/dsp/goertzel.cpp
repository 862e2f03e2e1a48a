#include "dsp/goertzel.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/math_util.hpp"

namespace bistna::dsp {

std::complex<double> goertzel(std::span<const double> samples, double frequency_hz,
                              double sample_rate_hz) {
    BISTNA_EXPECTS(!samples.empty(), "goertzel of empty record");
    BISTNA_EXPECTS(sample_rate_hz > 0.0, "sample rate must be positive");

    // Goertzel recurrence: s[n] = x[n] + 2 cos(w) s[n-1] - s[n-2].
    const double omega = two_pi * frequency_hz / sample_rate_hz;
    const double coeff = 2.0 * std::cos(omega);
    double s_prev = 0.0;
    double s_prev2 = 0.0;
    for (double x : samples) {
        const double s = x + coeff * s_prev - s_prev2;
        s_prev2 = s_prev;
        s_prev = s;
    }
    // Generalized finalization handles non-integer bin frequencies.
    const std::complex<double> w(std::cos(omega), std::sin(omega));
    std::complex<double> y = s_prev - s_prev2 * std::conj(w);
    // Phase reference at sample 0.
    const double back_angle = -omega * static_cast<double>(samples.size() - 1);
    y *= std::complex<double>(std::cos(back_angle), std::sin(back_angle));
    return y * (2.0 / static_cast<double>(samples.size()));
}

tone_estimate estimate_tone(std::span<const double> samples, double frequency_hz,
                            double sample_rate_hz) {
    const auto y = goertzel(samples, frequency_hz, sample_rate_hz);
    tone_estimate estimate;
    estimate.amplitude = std::abs(y);
    // goertzel computes sum x e^{-jwn}; for x = A cos(wn + p) the sum is
    // (N/2) A e^{jp}, already scaled by 2/N above.
    estimate.phase_rad = std::arg(y);
    return estimate;
}

} // namespace bistna::dsp
