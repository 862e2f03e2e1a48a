#include "gen/generator.hpp"

#include <cmath>
#include <complex>

#include "common/hash.hpp"
#include "common/math_util.hpp"

namespace bistna::gen {

generator_params generator_params::ideal() {
    generator_params p;
    p.opamp1 = sc::opamp_params::ideal();
    p.opamp2 = sc::opamp_params::ideal();
    p.process = sim::process_params::ideal();
    return p;
}

namespace {

using bistna::fnv1a_mix; // keep the common overloads visible next to ours

void fnv1a_mix(std::uint64_t& hash, const sc::opamp_params& opamp) noexcept {
    fnv1a_mix(hash, opamp.dc_gain_db);
    fnv1a_mix(hash, opamp.settling_error);
    fnv1a_mix(hash, opamp.output_swing);
    fnv1a_mix(hash, opamp.offset_volts);
    fnv1a_mix(hash, opamp.noise_rms);
    fnv1a_mix(hash, opamp.hd2);
    fnv1a_mix(hash, opamp.hd3);
}

} // namespace

std::uint64_t generator_params::fingerprint() const noexcept {
    std::uint64_t hash = fnv1a_offset_basis;
    fnv1a_mix(hash, caps.a);
    fnv1a_mix(hash, caps.b);
    fnv1a_mix(hash, caps.c);
    fnv1a_mix(hash, caps.d);
    fnv1a_mix(hash, caps.f);
    fnv1a_mix(hash, caps.cin_scale);
    fnv1a_mix(hash, opamp1);
    fnv1a_mix(hash, opamp2);
    fnv1a_mix(hash, process.cap_mismatch_sigma);
    fnv1a_mix(hash, process.opamp_gain_sigma_db);
    fnv1a_mix(hash, process.comparator_offset_sigma);
    fnv1a_mix(hash, process.opamp_offset_sigma);
    fnv1a_mix(hash, static_cast<std::uint64_t>(process.process_corner));
    fnv1a_mix(hash, seed);
    fnv1a_mix(hash, static_cast<std::uint64_t>(cap_fault_index));
    fnv1a_mix(hash, cap_fault_delta);
    return hash;
}

std::uint64_t sinewave_generator::process_stream_seed(std::uint64_t seed) noexcept {
    return derive_stream_seed(seed, 0);
}

std::uint64_t sinewave_generator::noise_stream_seed(std::uint64_t seed) noexcept {
    return derive_stream_seed(seed, 1);
}

sinewave_generator::drawn_instance
sinewave_generator::draw_instance(const generator_params& params) {
    sim::process_sampler process(params.process, rng(process_stream_seed(params.seed)));
    sc::biquad_caps caps = params.caps;
    caps.a = process.matched_capacitor(caps.a);
    caps.b = process.matched_capacitor(caps.b);
    caps.c = process.matched_capacitor(caps.c);
    caps.d = process.matched_capacitor(caps.d);
    caps.f = process.matched_capacitor(caps.f);
    cap_array array(process);
    if (params.cap_fault_delta != 0.0) {
        array.inject_level_fault(params.cap_fault_index, params.cap_fault_delta);
    }
    return drawn_instance{caps, std::move(array)};
}

sinewave_generator::sinewave_generator(const generator_params& params)
    : sinewave_generator(params, draw_instance(params)) {}

sinewave_generator::sinewave_generator(const generator_params& params, drawn_instance&& drawn)
    : params_(params), drawn_caps_(drawn.caps), array_(drawn.array),
      biquad_(drawn_caps_, params.opamp1, params.opamp2,
              rng(noise_stream_seed(params.seed))) {}

double sinewave_generator::step() {
    const auto control = control_sequencer::at(step_);
    ++step_;
    return biquad_.step(va_diff_, array_.value(control));
}

void sinewave_generator::settle(std::size_t periods) {
    for (std::size_t i = 0; i < periods * steps_per_period; ++i) {
        step();
    }
}

std::vector<double> sinewave_generator::generate(std::size_t count) {
    std::vector<double> out;
    out.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        out.push_back(step());
    }
    return out;
}

void sinewave_generator::reset() {
    biquad_.reset();
    step_ = 0;
}

double sinewave_generator::expected_amplitude() const {
    // Fundamental of this instance's drawn 16-step input sequence.  With an
    // ideal array the sequence is an exact unit sine, so this factor is 1;
    // mismatch perturbs it by O(sigma).
    const double n = static_cast<double>(steps_per_period);
    std::complex<double> bin{0.0, 0.0};
    for (std::size_t step = 0; step < steps_per_period; ++step) {
        const double x = array_.value(control_sequencer::at(step));
        const double angle = -two_pi * static_cast<double>(step) / n;
        bin += x * std::complex<double>(std::cos(angle), std::sin(angle));
    }
    const double input_fundamental = 2.0 * std::abs(bin) / n;

    // Linear response of the *drawn* biquad at f_gen/16.
    const double gain = std::abs(sc::biquad_response(drawn_caps_, 1.0 / n));
    return gain * input_fundamental * va_diff_;
}

} // namespace bistna::gen
