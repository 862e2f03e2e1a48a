// Parasitic-insensitive switched-capacitor integrator.
//
// One charge-transfer event: every input branch dumps the charge it sampled
// (cap * voltage) into the virtual ground; charge conservation on the
// feedback cap, with an optional switched damping cap, gives
//
//   v_new * (C_fb + C_damp) = C_fb * v_old - sum_i (C_i * V_i)
//
// Non-idealities from the behavioral op-amp model: finite-gain charge
// transfer error, incomplete settling, input-referred offset and noise,
// output clipping and a weak static nonlinearity.
#pragma once

#include <span>

#include "common/rng.hpp"
#include "sc/opamp.hpp"

namespace bistna::sc {

/// One sampled input branch of an SC integrator.
struct branch {
    double cap = 0.0;     ///< sampled capacitor value (normalized units)
    double voltage = 0.0; ///< voltage the cap sampled during phase 1
};

class sc_integrator {
public:
    /// feedback_cap > 0; damping_cap >= 0 (0 = lossless integrator).
    sc_integrator(double feedback_cap, double damping_cap, opamp_params opamp,
                  bistna::rng noise_rng = bistna::rng(0));

    /// Execute one charge-transfer event and return the new output voltage.
    double transfer(std::span<const branch> branches);

    /// Convenience for a single input branch.
    double transfer(branch input) { return transfer(std::span<const branch>(&input, 1)); }

    double output() const noexcept { return state_; }
    void reset(double v0 = 0.0) noexcept { state_ = v0; }

    const opamp_params& opamp() const noexcept { return opamp_; }

    /// Count of transfers where the output hit the swing limit.
    std::size_t clip_events() const noexcept { return clip_events_; }

private:
    double feedback_cap_;
    double damping_cap_;
    opamp_params opamp_;
    bistna::rng rng_;
    double state_ = 0.0;
    std::size_t clip_events_ = 0;
};

} // namespace bistna::sc
