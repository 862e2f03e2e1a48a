#include "dut/filters.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/math_util.hpp"

namespace bistna::dut {

transfer_function lowpass2(double cutoff_hz, double q, double gain) {
    BISTNA_EXPECTS(cutoff_hz > 0.0, "cutoff must be positive");
    BISTNA_EXPECTS(q > 0.0, "Q must be positive");
    const double w0 = two_pi * cutoff_hz;
    return transfer_function({gain * w0 * w0}, {w0 * w0, w0 / q, 1.0});
}

transfer_function butterworth_lowpass2(double cutoff_hz, double gain) {
    return lowpass2(cutoff_hz, 1.0 / std::sqrt(2.0), gain);
}

sallen_key_components design_sallen_key(double cutoff_hz, double q) {
    BISTNA_EXPECTS(cutoff_hz > 0.0 && q > 0.0, "invalid Sallen-Key specs");
    sallen_key_components c;
    c.r1 = 10e3;
    c.r2 = 10e3;
    // Unity-gain equal-R design: Q = sqrt(C1/C2)/2 -> C1 = 4 Q^2 C2,
    // w0 = 1/(R sqrt(C1 C2)).
    const double w0 = two_pi * cutoff_hz;
    const double c_geo = 1.0 / (w0 * c.r1); // sqrt(C1*C2)
    c.c1 = c_geo * 2.0 * q;
    c.c2 = c_geo / (2.0 * q);
    return c;
}

sallen_key_components perturb(const sallen_key_components& nominal, double tolerance_sigma,
                              bistna::rng& generator) {
    BISTNA_EXPECTS(tolerance_sigma >= 0.0, "tolerance must be non-negative");
    auto draw = [&](double v) { return v * (1.0 + generator.gaussian(0.0, tolerance_sigma)); };
    sallen_key_components out;
    out.r1 = draw(nominal.r1);
    out.r2 = draw(nominal.r2);
    out.c1 = draw(nominal.c1);
    out.c2 = draw(nominal.c2);
    return out;
}

transfer_function sallen_key_lowpass(const sallen_key_components& c) {
    BISTNA_EXPECTS(c.r1 > 0 && c.r2 > 0 && c.c1 > 0 && c.c2 > 0,
                   "Sallen-Key components must be positive");
    return transfer_function({1.0},
                             {1.0, c.c2 * (c.r1 + c.r2), c.r1 * c.r2 * c.c1 * c.c2});
}

transfer_function mfb_lowpass(const mfb_components& c) {
    BISTNA_EXPECTS(c.r1 > 0 && c.r2 > 0 && c.r3 > 0 && c.c1 > 0 && c.c2 > 0,
                   "MFB components must be positive");
    const double k = c.r2 / c.r1;
    return transfer_function(
        {-k}, {1.0, c.c1 * c.r2 * (c.r3 / c.r1 + c.r3 / c.r2 + 1.0),
               c.c1 * c.c2 * c.r2 * c.r3});
}

mfb_components design_mfb(double cutoff_hz, double q, double gain_abs) {
    BISTNA_EXPECTS(cutoff_hz > 0 && q > 0 && gain_abs > 0, "invalid MFB specs");
    mfb_components c;
    c.r2 = 10e3;
    c.r1 = c.r2 / gain_abs;
    c.r3 = 10e3;
    const double w0 = two_pi * cutoff_hz;
    // w0^2 = 1/(C1 C2 R2 R3); w0/q = C1 (R3/R1 + R3/R2 + 1) / (C1 C2 R3) ...
    // Solve with C1 chosen from the damping equation, then C2 from w0.
    const double damping_resistance = c.r2 * (c.r3 / c.r1 + c.r3 / c.r2 + 1.0);
    c.c1 = 1.0 / (q * w0 * damping_resistance);
    c.c2 = 1.0 / (w0 * w0 * c.c1 * c.r2 * c.r3);
    return c;
}

std::unique_ptr<device_under_test> make_paper_dut(double tolerance_sigma, std::uint64_t seed) {
    bistna::rng generator(seed);
    const auto nominal = design_sallen_key(1000.0, 1.0 / std::sqrt(2.0));
    const auto drawn = perturb(nominal, tolerance_sigma, generator);
    return std::make_unique<linear_dut>(sallen_key_lowpass(drawn),
                                        "active-RC 2nd-order LPF, fc = 1 kHz (Sallen-Key)");
}

} // namespace bistna::dut
