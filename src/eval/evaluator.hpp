// High-level sinewave evaluator (paper Fig. 4): acquisition + estimation.
//
// Wraps the signature extractor and the eq. (3)-(5) estimator into the
// measurements the network analyzer needs: DC level, per-harmonic
// amplitude/phase, THD, and amplitude-vs-MN convergence series (Fig. 9).
#pragma once

#include <cstdint>
#include <vector>

#include "eval/estimator.hpp"
#include "eval/signature.hpp"
#include "sim/timebase.hpp"

namespace bistna::eval {

struct evaluator_config {
    sd::modulator_params modulator = sd::modulator_params::ideal();
    std::uint64_t seed = 42;
    std::size_t calibration_periods = 4096;
    offset_mode offset = offset_mode::calibrated;
    /// N, fixed by construction on the board (sim::timebase::oversampling_ratio).
    static constexpr std::size_t n_per_period = sim::timebase::oversampling_ratio;
};

/// The harmonics a THD measurement over 1..max_harmonic reads: every k in
/// that range the N = 96 grid aligns (demod_reference::alignment_ok),
/// ascending; the others are skipped, which is documented behaviour.  The
/// scalar evaluator, the network analyzer and the sweep engine all take
/// their THD harmonics from here.  Throws precondition_error below
/// max_harmonic = 2.
std::vector<std::size_t> thd_harmonics(std::size_t max_harmonic);

class sinewave_evaluator {
public:
    explicit sinewave_evaluator(const evaluator_config& config);

    /// One-time offset calibration (automatic on first use when the offset
    /// mode requires it).
    void calibrate();

    /// DC level (k = 0), eq. (3).
    dc_measurement measure_dc(const sample_source& source, std::size_t periods);

    /// Amplitude + phase of harmonic k, eqs. (4)-(5).
    harmonic_measurement measure_harmonic(const sample_source& source, std::size_t k,
                                          std::size_t periods);

    /// THD from the harmonics thd_harmonics(max_harmonic) names.
    thd_measurement measure_thd(const sample_source& source, std::size_t max_harmonic,
                                std::size_t periods);

    /// Fig. 9: amplitude of harmonic k at several checkpoint period counts
    /// within a single acquisition.
    std::vector<amplitude_measurement> amplitude_convergence(
        const sample_source& source, std::size_t k,
        const std::vector<std::size_t>& checkpoint_periods);

    signature_extractor& extractor() noexcept { return extractor_; }
    const evaluator_config& config() const noexcept { return config_; }

private:
    acquisition_settings settings_for(std::size_t k, std::size_t periods) const;
    void ensure_calibrated();

    evaluator_config config_;
    signature_extractor extractor_;
};

} // namespace bistna::eval
