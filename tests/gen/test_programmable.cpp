// Programmable-waveform generator extension: pattern construction,
// hardware-cost accounting, spectral behaviour vs step count.
#include "common/error.hpp"
#include <gtest/gtest.h>

#include <cmath>

#include "common/math_util.hpp"
#include "dsp/goertzel.hpp"
#include "gen/programmable.hpp"

namespace {

using namespace bistna;
using gen::programmable_generator;
using gen::step_pattern;

TEST(StepPattern, QuantizedSineMatchesSamples) {
    const auto pattern = step_pattern::quantized_sine(32);
    EXPECT_EQ(pattern.period(), 32u);
    for (std::size_t n = 0; n < 64; ++n) {
        EXPECT_NEAR(pattern.step_value(n), std::sin(two_pi * static_cast<double>(n) / 32.0),
                    1e-12);
    }
}

TEST(StepPattern, SixteenStepSineNeedsFourCapacitors) {
    // The paper's pattern: 4 distinct magnitudes (CI_1..CI_4).
    const auto pattern = step_pattern::quantized_sine(16);
    EXPECT_EQ(pattern.level_count(), 4u);
    // 32 steps need 8 capacitors: hardware cost scales with resolution.
    EXPECT_EQ(step_pattern::quantized_sine(32).level_count(), 8u);
}

TEST(StepPattern, MismatchPreservesLevelSharing) {
    auto process_params = sim::process_params::ideal();
    process_params.cap_mismatch_sigma = 0.02;
    rng seed(3);
    sim::process_sampler sampler(process_params, seed);
    const auto ideal = step_pattern::quantized_sine(16);
    const auto drawn = ideal.with_mismatch(sampler);
    // Steps sharing a magnitude must share the same drawn capacitor.
    EXPECT_NEAR(drawn.step_value(1), -drawn.step_value(15), 1e-12);
    EXPECT_NEAR(drawn.step_value(2), drawn.step_value(6), 1e-12);
    EXPECT_NE(drawn.step_value(1), ideal.step_value(1));
}

TEST(ProgrammableGenerator, OutputFrequencyFollowsPeriod) {
    for (std::size_t p : {16UL, 32UL}) {
        programmable_generator::params config;
        config.opamp1 = sc::opamp_params::ideal();
        config.opamp2 = sc::opamp_params::ideal();
        config.process = sim::process_params::ideal();
        programmable_generator generator(step_pattern::quantized_sine(p), config);
        generator.set_amplitude(0.15);
        generator.settle(64);
        const auto wave = generator.generate(p * 64);
        const double amplitude =
            dsp::estimate_tone(wave, 1.0 / static_cast<double>(p), 1.0).amplitude;
        EXPECT_NEAR(amplitude, 0.3, 0.02) << "P=" << p; // gain-2 design preserved
    }
}

TEST(ProgrammableGenerator, BiquadRetunedToPatternPeriod) {
    programmable_generator::params config;
    programmable_generator g32(step_pattern::quantized_sine(32), config);
    const auto info = sc::analyze_biquad(g32.caps());
    EXPECT_NEAR(info.pole_angle, two_pi / 32.0, 1e-9);
    EXPECT_NEAR(g32.normalized_output_frequency(), 1.0 / 32.0, 1e-15);
}

TEST(ProgrammableGenerator, FinerQuantizationLowersCloseInImages) {
    // With exact sine samples the in-band harmonics come from mismatch;
    // the ZOH images sit at P -/+ 1 times f_wave, so doubling P pushes
    // them an octave further out -- the motivation for programmability.
    const auto p16 = step_pattern::quantized_sine(16);
    const auto p32 = step_pattern::quantized_sine(32);
    EXPECT_EQ(p16.period() - 1, 15u);
    EXPECT_EQ(p32.period() - 1, 31u);
}

TEST(StepPattern, Validation) {
    EXPECT_THROW(step_pattern::quantized_sine(3), precondition_error);
    EXPECT_THROW(step_pattern::quantized_sine(5), precondition_error);
    EXPECT_THROW(step_pattern({1.5, 0.0, -1.5, 0.0}), precondition_error);
}

} // namespace
