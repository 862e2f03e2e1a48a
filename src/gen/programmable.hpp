// Programmable quantized-waveform generator (extension).
//
// The paper's generator hard-wires the 16-step sine of eq. (2); its cited
// predecessor (Patangia & Zenone [12]) is *programmable*.  This extension
// generalizes the control sequencer to any steps-per-period P and any
// level table, so the same biquad-plus-switched-array hardware can emit
//   - finer sine quantizations (P = 32, 64 -> images pushed further out),
//   - amplitude-modulated / multitone step patterns for two-tone tests.
// The biquad design helper retunes the smoothing filter to f_gen/P.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.hpp"
#include "sc/analysis.hpp"
#include "sc/biquad.hpp"
#include "sim/process.hpp"

namespace bistna::gen {

/// A periodic step pattern: signed capacitor selections per generator cycle.
class step_pattern {
public:
    /// Build from explicit step values (normalized to [-1, 1]); the level
    /// table is the sorted set of distinct magnitudes (the capacitor bank).
    explicit step_pattern(std::vector<double> steps);

    /// Quantized sine with P steps per period: values sin(2 pi n / P).
    static step_pattern quantized_sine(std::size_t steps_per_period);

    std::size_t period() const noexcept { return steps_.size(); }
    double step_value(std::size_t n) const noexcept { return steps_[n % steps_.size()]; }

    /// Number of distinct capacitor magnitudes the pattern requires
    /// (hardware cost: one unit-ratioed capacitor per level).
    std::size_t level_count() const noexcept { return levels_.size(); }
    const std::vector<double>& levels() const noexcept { return levels_; }

    /// Apply per-level mismatch (the same physical capacitor realizes every
    /// step that shares a magnitude, exactly like the Fig. 2b array).
    step_pattern with_mismatch(sim::process_sampler& process) const;

private:
    std::vector<double> steps_;
    std::vector<double> levels_;
};

/// Generator with a programmable pattern and a retuned smoothing biquad.
class programmable_generator {
public:
    struct params {
        sc::opamp_params opamp1 = sc::opamp_params::folded_cascode_035();
        sc::opamp_params opamp2 = sc::opamp_params::folded_cascode_035();
        sim::process_params process = sim::process_params::cmos035();
        double pole_radius = 0.9625; ///< smoothing-filter Q (as Table I)
        double passband_gain = 2.0;
        std::uint64_t seed = 1;
    };

    programmable_generator(step_pattern pattern, const params& config);

    void set_amplitude(double va_diff_volts) { va_diff_ = va_diff_volts; }

    /// One generator-clock cycle.
    double step();

    std::vector<double> generate(std::size_t count);
    void settle(std::size_t periods = 32);
    void reset();

    /// f_wave / f_gen for this pattern.
    double normalized_output_frequency() const;
    const sc::biquad_caps& caps() const noexcept { return caps_; }
    const step_pattern& pattern() const noexcept { return pattern_; }

private:
    step_pattern pattern_;
    sc::biquad_caps caps_;
    sc::sc_biquad biquad_;
    double va_diff_ = 0.0;
    std::size_t step_index_ = 0;
};

} // namespace bistna::gen
