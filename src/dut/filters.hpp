// Active-RC filter designs with component-level tolerance modeling.
//
// The demonstrator board's DUT is "an active-RC 2nd-order low-pass filter
// with a cut-off frequency of 1 kHz" (paper section IV.C).  We realize it
// as a unity-gain Sallen-Key Butterworth stage built from discrete Rs and
// Cs; drawing each component from its tolerance band moves the actual
// cutoff/Q exactly like a populated board would, and the drawn values feed
// both the simulation and the ground-truth response.
#pragma once

#include <memory>

#include "common/rng.hpp"
#include "dut/dut.hpp"
#include "dut/transfer_function.hpp"

namespace bistna::dut {

/// Ideal 2nd-order Butterworth low-pass prototype:
/// H(s) = gain * w0^2 / (s^2 + sqrt(2) w0 s + w0^2).
transfer_function butterworth_lowpass2(double cutoff_hz, double gain = 1.0);

/// Generic 2nd-order low-pass: H(s) = gain * w0^2 / (s^2 + (w0/q) s + w0^2).
transfer_function lowpass2(double cutoff_hz, double q, double gain = 1.0);

/// Unity-gain Sallen-Key low-pass component set.
struct sallen_key_components {
    double r1 = 0.0; ///< ohms
    double r2 = 0.0; ///< ohms
    double c1 = 0.0; ///< farads (positive-feedback cap)
    double c2 = 0.0; ///< farads (ground cap)
};

/// Nominal components for a given cutoff and Q (equal-R design,
/// C1/C2 = 4 Q^2, R around 10 kOhm).
sallen_key_components design_sallen_key(double cutoff_hz, double q);

/// Draw each component from a Gaussian tolerance band (sigma relative).
sallen_key_components perturb(const sallen_key_components& nominal, double tolerance_sigma,
                              bistna::rng& generator);

/// H(s) of the unity-gain Sallen-Key stage:
/// H = 1 / (s^2 R1 R2 C1 C2 + s C2 (R1 + R2) + 1).
transfer_function sallen_key_lowpass(const sallen_key_components& components);

/// Multiple-feedback (inverting) low-pass:
/// H = -(R2/R1) / (1 + s C1 R2 (R3/R1 + R3/R2 + 1) + s^2 C1 C2 R2 R3).
struct mfb_components {
    double r1 = 0.0, r2 = 0.0, r3 = 0.0;
    double c1 = 0.0, c2 = 0.0;
};
transfer_function mfb_lowpass(const mfb_components& components);
mfb_components design_mfb(double cutoff_hz, double q, double gain_abs);

/// The paper's DUT: 1 kHz Butterworth Sallen-Key with board tolerances.
/// `tolerance_sigma` ~ 0.01 for 1 % components.  Returns a linear DUT whose
/// ideal_response reflects the *drawn* component values.
std::unique_ptr<device_under_test> make_paper_dut(double tolerance_sigma = 0.01,
                                                  std::uint64_t seed = 7);

} // namespace bistna::dut
