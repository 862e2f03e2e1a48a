#include "sim/process.hpp"

namespace bistna::sim {

process_params process_params::ideal() {
    process_params p;
    p.cap_mismatch_sigma = 0.0;
    p.opamp_gain_sigma_db = 0.0;
    p.comparator_offset_sigma = 0.0;
    p.opamp_offset_sigma = 0.0;
    return p;
}

process_params process_params::cmos035() { return process_params{}; }

process_sampler::process_sampler(process_params params, rng generator)
    : params_(params), rng_(generator) {}

double process_sampler::matched_capacitor(double nominal) {
    return nominal * (1.0 + rng_.gaussian(0.0, params_.cap_mismatch_sigma));
}

std::vector<double> process_sampler::matched_capacitors(const std::vector<double>& nominals) {
    std::vector<double> drawn;
    drawn.reserve(nominals.size());
    for (double nominal : nominals) {
        drawn.push_back(matched_capacitor(nominal));
    }
    return drawn;
}

double process_sampler::opamp_gain_db(double nominal_db) {
    double corner_shift = 0.0;
    switch (params_.process_corner) {
    case corner::typical:
        break;
    case corner::slow:
        corner_shift = -4.0;
        break;
    case corner::fast:
        corner_shift = +3.0;
        break;
    }
    return nominal_db + corner_shift + rng_.gaussian(0.0, params_.opamp_gain_sigma_db);
}

double process_sampler::comparator_offset() {
    return rng_.gaussian(0.0, params_.comparator_offset_sigma);
}

} // namespace bistna::sim
