// Process-variation models.
//
// Capacitor ratios in 0.35 um CMOS match to roughly 0.1 %; op-amp gain and
// offsets vary with process corner.  These draws set the harmonic floor the
// paper measures (Fig. 8b: SFDR 70 dB), so they are explicit, seeded and
// documented rather than hidden constants.
#pragma once

#include <vector>

#include "common/rng.hpp"

namespace bistna::sim {

/// Process corner for behavioral parameter scaling.
enum class corner {
    typical,
    slow, ///< lower op-amp gain/bandwidth
    fast  ///< higher op-amp gain/bandwidth
};

/// Mismatch / variation magnitudes for a fabrication run.
struct process_params {
    double cap_mismatch_sigma = 1.0e-3;    ///< relative sigma of capacitor ratios (~0.1 %)
    double opamp_gain_sigma_db = 2.0;      ///< sigma of op-amp DC gain in dB
    double comparator_offset_sigma = 2e-3; ///< volts
    double opamp_offset_sigma = 1e-3;      ///< volts
    corner process_corner = corner::typical;

    /// An idealized process with no variation (for ground-truth runs).
    static process_params ideal();
    /// Defaults representative of the paper's 0.35 um technology.
    static process_params cmos035();
};

/// Draws per-instance component values for one fabricated die.
class process_sampler {
public:
    process_sampler(process_params params, rng generator);

    /// A capacitor ratio subject to matching error: nominal * (1 + delta).
    double matched_capacitor(double nominal);

    /// Draw a vector of matched capacitors sharing the same sigma.
    std::vector<double> matched_capacitors(const std::vector<double>& nominals);

    /// Op-amp DC gain in dB around a nominal, with corner shift.
    double opamp_gain_db(double nominal_db);

    /// Comparator input-referred offset (volts).
    double comparator_offset();

    const process_params& params() const noexcept { return params_; }

private:
    process_params params_;
    rng rng_;
};

} // namespace bistna::sim
