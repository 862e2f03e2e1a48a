#include "baseline/dft_analyzer.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "common/units.hpp"
#include "sim/timebase.hpp"

namespace bistna::baseline {

dft_point dft_analyzer::measure(const std::vector<double>& record,
                                std::size_t harmonic_k) const {
    constexpr std::size_t samples_per_period = sim::timebase::oversampling_ratio;
    BISTNA_EXPECTS(record.size() % samples_per_period == 0,
                   "coherent DFT needs an integer number of periods");
    const double f_norm = static_cast<double>(harmonic_k) / static_cast<double>(samples_per_period);
    const auto estimate = dsp::estimate_tone(record, f_norm, 1.0);
    return dft_point{estimate.amplitude, estimate.phase_rad};
}

dft_analyzer::gain_phase dft_analyzer::transfer(const std::vector<double>& input,
                                                const std::vector<double>& output,
                                                std::size_t harmonic_k) const {
    const auto in = measure(input, harmonic_k);
    const auto out = measure(output, harmonic_k);
    BISTNA_EXPECTS(in.amplitude > 0.0, "input record has no tone at the requested harmonic");
    gain_phase gp;
    gp.gain = out.amplitude / in.amplitude;
    gp.gain_db = amplitude_ratio_to_db(gp.gain);
    gp.phase_rad = wrap_phase(out.phase_rad - in.phase_rad);
    return gp;
}

} // namespace bistna::baseline
