#include "dsp/resample.hpp"

#include "common/error.hpp"

namespace bistna::dsp {

std::vector<double> zoh_upsample(const std::vector<double>& samples, std::size_t factor) {
    BISTNA_EXPECTS(factor > 0, "upsampling factor must be positive");
    std::vector<double> out;
    out.reserve(samples.size() * factor);
    for (double x : samples) {
        for (std::size_t k = 0; k < factor; ++k) {
            out.push_back(x);
        }
    }
    return out;
}

} // namespace bistna::dsp
