// The switched-capacitor sinewave generator (paper Fig. 2, section III.A).
//
// A Table-I biquad whose input capacitor is the time-variant array CI(t):
// each generator-clock cycle the selected capacitor samples the programming
// DC level V_A+ - V_A- and dumps the charge into the filter.  The output is
// a smoothed sine at f_wave = f_gen/16 with amplitude 2*(V_A+ - V_A-).
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "gen/cap_array.hpp"
#include "gen/quantized_sine.hpp"
#include "sc/analysis.hpp"
#include "sc/biquad.hpp"
#include "sim/process.hpp"

namespace bistna::gen {

/// Configuration of one fabricated generator instance.
struct generator_params {
    sc::biquad_caps caps = sc::biquad_caps::table1();
    sc::opamp_params opamp1 = sc::opamp_params::folded_cascode_035();
    sc::opamp_params opamp2 = sc::opamp_params::folded_cascode_035();
    sim::process_params process = sim::process_params::cmos035();
    std::uint64_t seed = 1;

    /// Parametric single-fault injection into the drawn input array (diag
    /// fault model): unit capacitor `cap_fault_index` deviates by
    /// `cap_fault_delta` relative on top of the process mismatch draw.
    /// 0 disables the fault; both fields are part of the fingerprint.
    std::size_t cap_fault_index = 2;
    double cap_fault_delta = 0.0;

    /// Fully ideal instance (exact caps, perfect op-amps, no noise).
    static generator_params ideal();

    /// Hash over every field that shapes the emitted waveform (caps,
    /// op-amps, process, seed).  Two parameter sets with the
    /// same fingerprint draw the same instance and emit the same
    /// clock-normalized sequence, which is what lets a stimulus-record cache
    /// key on it (see core::stimulus_cache).
    std::uint64_t fingerprint() const noexcept;
};

class sinewave_generator {
public:
    explicit sinewave_generator(const generator_params& params);

    /// Seed of the child RNG stream that draws the process instance
    /// (capacitor mismatch).  Distinct from noise_stream_seed by
    /// construction, so mismatch draws and op-amp noise are uncorrelated.
    static std::uint64_t process_stream_seed(std::uint64_t seed) noexcept;
    /// Seed of the child RNG stream that drives the biquad's op-amp noise.
    static std::uint64_t noise_stream_seed(std::uint64_t seed) noexcept;

    /// Program the amplitude: the differential DC level V_A+ - V_A-.
    /// Output amplitude is approximately 2 * va_diff (Fig. 8a).
    void set_amplitude(volt va_diff) { va_diff_ = va_diff.value; }

    /// Advance one generator-clock cycle and return the output sample.
    double step();

    /// Run `periods` output periods to flush the startup transient.
    void settle(std::size_t periods = 32);

    /// Produce `count` output samples at the generator clock rate.
    std::vector<double> generate(std::size_t count);

    /// Restart from zero state and phase.
    void reset();

    /// The nominal (pre-draw) configuration of this instance.
    const generator_params& params() const noexcept { return params_; }
    /// The drawn (mismatched) input array of this instance.
    const cap_array& array() const noexcept { return array_; }
    /// The drawn biquad capacitors of this instance.
    const sc::biquad_caps& drawn_caps() const noexcept { return drawn_caps_; }
    /// Expected output amplitude of *this drawn instance* for the current
    /// setting: the fundamental of the drawn input-array sequence through
    /// the linear response of the drawn biquad capacitors.  For the
    /// design-nominal prediction evaluate sc::biquad_response over the
    /// nominal params().caps instead.
    double expected_amplitude() const;

private:
    /// One process draw: the biquad capacitors and the input array both
    /// come from a single sampler pass over the process stream.
    struct drawn_instance {
        sc::biquad_caps caps;
        cap_array array;
    };
    static drawn_instance draw_instance(const generator_params& params);
    sinewave_generator(const generator_params& params, drawn_instance&& drawn);

    generator_params params_;
    sc::biquad_caps drawn_caps_;
    cap_array array_;
    sc::sc_biquad biquad_;
    double va_diff_ = 0.0;
    std::size_t step_ = 0;
};

} // namespace bistna::gen
