// z-domain analysis and design of the two-integrator-loop biquad.
//
// Lets tests verify the Fig. 2 structure against Table I, and provides the
// inverse mapping (specs -> capacitor ratios) used by bench_table1_caps to
// re-derive the paper's capacitor values from the f_gen/16 design intent.
#pragma once

#include <complex>

#include "sc/biquad.hpp"

namespace bistna::sc {

/// Ideal (linear, infinite-gain) transfer function u -> v2 of sc_biquad:
///   H(z) = -delta*beta / [ (1 - z^-1)(1 - alpha z^-1) + delta*gamma z^-1 ]
/// with alpha = B/(B+F), beta = cin_scale/(B+F), gamma = A/(B+F),
/// delta = C/D.  `input_cap` defaults to the array's largest value (1).
std::complex<double> biquad_response(const biquad_caps& caps, double normalized_frequency,
                                     double input_cap = 1.0);

/// Pole/peak characterization of the biquad.
struct resonance_info {
    double pole_radius = 0.0;
    double pole_angle = 0.0;       ///< radians per sample
    double peak_frequency = 0.0;   ///< normalized f/fs of |H| maximum
    double peak_gain = 0.0;        ///< |H| at the peak
    double gain_at_16th = 0.0;     ///< |H| at f = fs/16 (the generator fundamental)
    double q_factor = 0.0;         ///< from pole radius/angle
};

resonance_info analyze_biquad(const biquad_caps& caps);

/// Design specs for the smoothing biquad.
struct biquad_design_spec {
    double normalized_f0 = 1.0 / 16.0; ///< resonance at f_gen/16
    double pole_radius = 0.9625;       ///< Q ~ 5 (matches Table I)
    double passband_gain = 2.0;        ///< measured amplitude = 2 (V_A+ - V_A-)
    double total_cap_scale = 13.763;   ///< B + F normalization (area budget)
};

/// Derive capacitor ratios from specs (C fixed to 1, double-sampled input).
/// bench_table1_caps compares this against the paper's Table I.
biquad_caps design_biquad(const biquad_design_spec& spec);

} // namespace bistna::sc
