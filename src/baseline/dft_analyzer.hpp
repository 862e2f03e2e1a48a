// Coherent-DFT baseline analyzer (the DSP approach of the paper's refs
// [4][5]): correlate a captured record against sin/cos at the tone
// frequency.  Needs full-resolution waveform acquisition -- exactly the
// high data-volume cost the BIST scheme avoids -- but serves as the
// accuracy reference for the network analyzer's gain/phase estimates.
#pragma once

#include <vector>

#include "common/interval.hpp"
#include "dsp/goertzel.hpp"
#include "eval/signature.hpp"

namespace bistna::baseline {

struct dft_point {
    double amplitude = 0.0;
    double phase_rad = 0.0;
};

class dft_analyzer {
public:
    /// Measure a harmonic of the coherent grid: harmonic k of a record with
    /// N = 96 samples per fundamental period, the board's oversampling ratio.
    dft_point measure(const std::vector<double>& record, std::size_t harmonic_k) const;

    /// Gain/phase between two coherent records (input & output of a DUT).
    struct gain_phase {
        double gain = 0.0;
        double gain_db = 0.0;
        double phase_rad = 0.0;
    };
    gain_phase transfer(const std::vector<double>& input, const std::vector<double>& output,
                        std::size_t harmonic_k) const;
};

} // namespace bistna::baseline
