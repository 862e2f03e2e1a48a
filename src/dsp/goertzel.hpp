// Generalized Goertzel single-frequency DFT.
//
// Serves as the "ideal DSP" baseline analyzer (refs [4][5] in the paper):
// a coherent correlation against sin/cos at one frequency, giving amplitude
// and phase without a full FFT.
#pragma once

#include <complex>
#include <span>

namespace bistna::dsp {

/// Complex correlation sum (2/N) * sum x[n] e^{-j 2 pi f n / fs}.
/// For a coherent record (integer periods), |result| is the tone amplitude
/// and arg(result) its phase (cosine reference).
std::complex<double> goertzel(std::span<const double> samples, double frequency_hz,
                              double sample_rate_hz);

/// Amplitude and phase of a tone extracted by coherent correlation.
struct tone_estimate {
    double amplitude = 0.0;
    double phase_rad = 0.0; ///< phase of A*cos(wt + phase)
};

tone_estimate estimate_tone(std::span<const double> samples, double frequency_hz,
                            double sample_rate_hz);

} // namespace bistna::dsp
