// Bandpass-filter + amplitude-detector analyzer (the paper's ref [8],
// "An On-Chip Spectrum Analyzer for Analog Built-In Testing").
//
// A programmable SC band-pass filter is centered on the harmonic of
// interest and a peak detector measures the filtered amplitude.  The paper
// positions its sigma-delta evaluator *against* this approach, whose
// dynamic range is limited to ~40 dB by (a) finite filter selectivity --
// the full-scale fundamental leaks into the harmonic measurement -- and
// (b) the amplitude detector's resolution/offset.  bench_dynamic_range
// reproduces that comparison.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "eval/signature.hpp"

namespace bistna::baseline {

struct bandpass_analyzer_params {
    double filter_q = 10.0;          ///< selectivity of the SC band-pass
    unsigned detector_bits = 8;      ///< amplitude-detector resolution
    double detector_full_scale = 1.0;///< volts
    double detector_offset = 2e-3;   ///< peak-detector droop/offset floor (volts)
    std::size_t settle_periods = 64; ///< filter settling before detection
    std::size_t detect_periods = 64; ///< detection window
    std::uint64_t seed = 5;
};

/// Amplitude of harmonic k measured by the swept band-pass method.
struct bandpass_measurement {
    double amplitude = 0.0; ///< detector reading (volts)
    double dbfs = 0.0;      ///< relative to detector full scale
};

class bandpass_analyzer {
public:
    explicit bandpass_analyzer(bandpass_analyzer_params params);

    /// Measure harmonic k of a coherent record (N = 96 samples per
    /// fundamental period, the board's oversampling ratio).
    bandpass_measurement measure(const eval::sample_source& source, std::size_t harmonic_k);

    const bandpass_analyzer_params& params() const noexcept { return params_; }

private:
    bandpass_analyzer_params params_;
    bistna::rng rng_;
};

} // namespace bistna::baseline
