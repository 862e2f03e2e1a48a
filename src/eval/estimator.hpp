// Signature processing: the paper's eqs. (3), (4), (5).
//
// Every estimate is returned both as a point value and as a guaranteed
// interval obtained by propagating the quantization-error terms
// eps1, eps2 in [-eps_bound, +eps_bound] through the closed-form
// expressions:
//   (3)  B      =  vref *  I10 / (MN)
//   (4)  A_k    =  vref * hypot(I1k, I2k) / (MN |c1|)     (|c1| ~ 2/pi)
//   (5)  tan(phi_k) = I1k / I2k
// c1 is the sampled square wave's exact coefficient (square_wave.hpp).
#pragma once

#include <optional>
#include <vector>

#include "common/interval.hpp"
#include "eval/signature.hpp"

namespace bistna::eval {

/// Full-scale reference for the dB axis of Fig. 9 (the modulator reference
/// amplitude; the paper's "dBm" axis is dB relative to this).
inline constexpr double full_scale_reference = 0.7;

struct dc_measurement {
    double volts = 0.0;
    interval bounds_volts; ///< eq. (3) interval
};

struct amplitude_measurement {
    double volts = 0.0;
    interval bounds_volts; ///< eq. (4) interval
    double dbfs = 0.0;     ///< dB relative to the modulator full scale
    interval bounds_dbfs;
    std::size_t harmonic_k = 0;
};

struct phase_measurement {
    double radians = 0.0;  ///< phase of the k-th harmonic w.r.t. SQ_kT
    interval bounds_radians; ///< eq. (5) interval (via sign-aware atan2 box)
    std::size_t harmonic_k = 0;
};

/// eq. (3): DC level from a k = 0 signature.
dc_measurement estimate_dc(const signature_result& sig);

/// eq. (4): k-th harmonic amplitude.
amplitude_measurement estimate_amplitude(const signature_result& sig);

/// eq. (5): k-th harmonic phase w.r.t. the modulating square wave.  Returns
/// nullopt when the uncertainty box encloses the origin (amplitude below
/// the quantization floor -- increase M).
std::optional<phase_measurement> estimate_phase(const signature_result& sig);

/// Combined amplitude+phase of one harmonic.  The raw signatures are kept
/// so callers can degrade gracefully when the phase box is undetermined
/// (e.g. report a point estimate with a full-circle interval, as the
/// paper's deep-stopband Bode points effectively do).
struct harmonic_measurement {
    amplitude_measurement amplitude;
    std::optional<phase_measurement> phase;
    signature_result signature;
};

harmonic_measurement estimate_harmonic(const signature_result& sig);

/// THD from a set of harmonic amplitude measurements (fundamental first):
/// 20*log10( sqrt(sum_{k>=2} A_k^2) / A_1 ), with interval propagation.
struct thd_measurement {
    double db = 0.0;
    interval bounds_db;
};

thd_measurement compute_thd(const std::vector<amplitude_measurement>& harmonics);

/// compute_thd, degrading instead of throwing when the fundamental's
/// guaranteed interval reaches zero (a dead or saturated signal path on a
/// hard-faulted die): the ratio is unbounded, so the result is +inf dB
/// with a no-information interval.  The measurement layers use this so lot
/// screening and diagnosis record such dice as failing rather than abort.
thd_measurement compute_thd_lenient(const std::vector<amplitude_measurement>& harmonics);

} // namespace bistna::eval
