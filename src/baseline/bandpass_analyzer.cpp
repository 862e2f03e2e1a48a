#include "baseline/bandpass_analyzer.hpp"

#include <algorithm>
#include <cmath>
#include <complex>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "common/units.hpp"
#include "sim/timebase.hpp"

namespace bistna::baseline {

bandpass_analyzer::bandpass_analyzer(bandpass_analyzer_params params)
    : params_(params), rng_(params.seed) {
    BISTNA_EXPECTS(params.filter_q > 0.5, "band-pass Q must exceed 0.5");
    BISTNA_EXPECTS(params.detector_bits >= 2 && params.detector_bits <= 24,
                   "unreasonable detector resolution");
}

bandpass_measurement bandpass_analyzer::measure(const eval::sample_source& source,
                                                std::size_t harmonic_k) {
    constexpr std::size_t samples_per_period = sim::timebase::oversampling_ratio;
    BISTNA_EXPECTS(harmonic_k >= 1, "band-pass analyzer measures harmonics k >= 1");
    BISTNA_EXPECTS(2 * harmonic_k < samples_per_period, "harmonic beyond the Nyquist limit");

    // Discrete-time resonator centered on the harmonic, peak gain
    // normalized to 1:  H(z) = g (1 - z^-2) / (1 - 2 r cos(theta) z^-1 + r^2 z^-2).
    const double theta =
        two_pi * static_cast<double>(harmonic_k) / static_cast<double>(samples_per_period);
    const double r = 1.0 - theta / (2.0 * params_.filter_q);
    BISTNA_EXPECTS(r > 0.0 && r < 1.0, "band-pass pole radius out of range");
    const double a1 = -2.0 * r * std::cos(theta);
    const double a2 = r * r;
    // Peak gain of the resonator at theta (numeric normalization).
    const std::complex<double> z1(std::cos(theta), -std::sin(theta));
    const std::complex<double> den = 1.0 + a1 * z1 + a2 * z1 * z1;
    const std::complex<double> num = 1.0 - z1 * z1;
    const double g = std::abs(den) / std::abs(num);

    // Direct-form II transposed biquad: b = {g, 0, -g}, a = {1, a1, a2}.
    double s1 = 0.0;
    double s2 = 0.0;
    double peak = 0.0;
    const std::size_t settle = params_.settle_periods * samples_per_period;
    const std::size_t detect = params_.detect_periods * samples_per_period;
    for (std::size_t n = 0; n < settle + detect; ++n) {
        const double x = source(n);
        const double y = g * x + s1;
        s1 = -a1 * y + s2;
        s2 = -g * x - a2 * y;
        if (n >= settle) {
            peak = std::max(peak, std::abs(y));
        }
    }

    // Peak detector: droop/offset floor plus quantized readout.
    const double lsb = params_.detector_full_scale /
                       static_cast<double>(1ULL << params_.detector_bits);
    double reading = peak + params_.detector_offset * rng_.uniform(0.5, 1.0);
    reading = std::min(reading, params_.detector_full_scale);
    reading = std::round(reading / lsb) * lsb;

    bandpass_measurement m;
    m.amplitude = reading;
    m.dbfs = amplitude_to_dbfs(std::max(reading, lsb * 0.5), params_.detector_full_scale);
    return m;
}

} // namespace bistna::baseline
