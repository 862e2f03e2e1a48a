// ATE-generated analog stimuli (the Agilent 93000's role in Fig. 7/Fig. 9).
//
// The Fig. 9 experiment feeds the evaluator a multitone built from
// harmonics of the wave frequency: x[n] = dc + sum_i A_i sin(2 pi k_i n/N
// + phi_i), plus optional source noise.  Tones are specified on the
// master-clock grid, N = 96 samples per wave period as on the board
// (sim::timebase::oversampling_ratio), so acquisitions stay coherent by
// construction.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "eval/signature.hpp"

namespace bistna::ate {

struct tone {
    std::size_t harmonic = 1; ///< multiple of f_wave (0 allowed for DC via `dc` instead)
    double amplitude = 0.0;   ///< volts
    double phase_rad = 0.0;
};

class multitone_source {
public:
    /// Throws precondition_error on a negative amplitude or a harmonic at
    /// or above the grid's Nyquist limit (N/2).
    explicit multitone_source(std::vector<tone> tones, double dc = 0.0);

    /// Additive white Gaussian source noise (ATE output + board pickup).
    void set_noise(double rms_volts, std::uint64_t seed);

    /// Sample at master-clock index n.
    double sample(std::size_t n) const;

    /// Adapt to the evaluator's streaming interface.
    eval::sample_source as_source() const;

    /// Paper Fig. 9 stimulus: A1 = 0.2 V, A2 = 0.02 V, A3 = 0.002 V, at
    /// phases 0.3, 1.1 and 2.2 rad.
    static multitone_source fig9_stimulus();

    const std::vector<tone>& tones() const noexcept { return tones_; }
    double dc() const noexcept { return dc_; }

private:
    std::vector<tone> tones_;
    double dc_;
    double noise_rms_ = 0.0;
    mutable bistna::rng noise_rng_{0};
};

} // namespace bistna::ate
