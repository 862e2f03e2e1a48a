// Two-integrator-loop switched-capacitor biquad (paper Fig. 2a).
//
// Topology recovered from Table I (see DESIGN.md and analysis.hpp):
//   - op-amp 1: inverting damped integrator, integrating cap B, switched
//     damping cap F, inputs: the time-variant array CI(t) and cap A
//     sampling the op-amp-2 output (the resonator feedback);
//   - op-amp 2: non-inverting lossless integrator, integrating cap D,
//     input cap C sampling the op-amp-1 output in the same cycle.
//
// Per generator-clock cycle n (single-ended equivalent of the fully
// differential circuit):
//   v1[n] = [ B*v1[n-1] - Cin(n)*u(n) - A*v2[n-1] ] / (B + F)
//   v2[n] = v2[n-1] + (C/D) * v1[n]
//
// With the Table I values the poles sit at angle 2*pi/16.07 and radius
// 0.962 (Q ~ 5), i.e. a resonant low-pass peaked at f_gen/16 -- exactly the
// smoothing filter the 16-step quantized sine needs.
#pragma once

#include <complex>

#include "common/rng.hpp"
#include "sc/integrator.hpp"
#include "sc/opamp.hpp"

namespace bistna::sc {

/// Normalized capacitor set (paper Table I).
struct biquad_caps {
    double a = 5.194;
    double b = 12.749;
    double c = 1.0;
    double d = 2.574;
    double f = 1.014;
    /// The input branch samples on both clock phases (double sampling), so
    /// each cycle transfers twice the single-phase charge; this reproduces
    /// the measured passband gain of 2 w.r.t. V_A+ - V_A- (Fig. 8a).
    double cin_scale = 2.0;

    /// Paper Table I values (the defaults above).
    static biquad_caps table1() { return biquad_caps{}; }
};

class sc_biquad {
public:
    sc_biquad(biquad_caps caps, opamp_params opamp1, opamp_params opamp2,
              bistna::rng noise_rng = bistna::rng(0));

    /// One generator-clock cycle: the input branch dumps charge
    /// cin_scale * input_cap * input_voltage; returns the low-pass output v2.
    double step(double input_voltage, double input_cap);

    double v2() const noexcept { return integrator2_.output(); }
    void reset();

    const biquad_caps& caps() const noexcept { return caps_; }
    std::size_t clip_events() const noexcept;

private:
    biquad_caps caps_;
    sc_integrator integrator1_; ///< damped, inverting (B, F)
    sc_integrator integrator2_; ///< lossless, non-inverting (D)
};

} // namespace bistna::sc
