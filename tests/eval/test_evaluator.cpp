// High-level evaluator: multitone measurement (the Fig. 9 scenario),
// convergence, THD, offset calibration.
#include "common/error.hpp"
#include <gtest/gtest.h>

#include <cmath>

#include "ate/multitone.hpp"
#include "common/math_util.hpp"
#include "eval/evaluator.hpp"

namespace {

using namespace bistna;
using eval::evaluator_config;
using eval::sinewave_evaluator;

evaluator_config ideal_config(std::uint64_t seed = 31) {
    evaluator_config config;
    config.modulator = sd::modulator_params::ideal();
    config.seed = seed;
    config.offset = eval::offset_mode::none;
    return config;
}

TEST(Evaluator, MeasuresFig9MultitoneWithinBounds) {
    const auto stimulus = ate::multitone_source::fig9_stimulus();
    sinewave_evaluator evaluator(ideal_config());
    const auto source = stimulus.as_source();

    const double truths[3] = {0.2, 0.02, 0.002};
    for (std::size_t k = 1; k <= 3; ++k) {
        const auto m = evaluator.measure_harmonic(source, k, 1000);
        // Allow the documented square-wave leakage (A_{3k}/3 etc.) on top
        // of the eq. (4) interval.
        const double leakage = k == 1 ? truths[2] / 3.0 : 0.0;
        EXPECT_NEAR(m.amplitude.volts, truths[k - 1],
                    m.amplitude.bounds_volts.radius() + leakage + 1e-6)
            << "k=" << k;
    }
}

TEST(Evaluator, ConvergenceSeriesTightensMonotonically) {
    const auto stimulus = ate::multitone_source::fig9_stimulus();
    sinewave_evaluator evaluator(ideal_config());
    const auto series =
        evaluator.amplitude_convergence(stimulus.as_source(), 2, {20, 50, 100, 300, 1000});
    ASSERT_EQ(series.size(), 5u);
    for (std::size_t i = 1; i < series.size(); ++i) {
        EXPECT_LT(series[i].bounds_volts.width(), series[i - 1].bounds_volts.width());
    }
    // All checkpoints contain the 0.02 V truth.
    for (const auto& m : series) {
        EXPECT_TRUE(m.bounds_volts.contains(0.02));
    }
}

TEST(Evaluator, PhasesRecoveredForAllTones) {
    const double phases[3] = {0.3, 1.1, 2.2};
    const auto stimulus = ate::multitone_source::fig9_stimulus();
    sinewave_evaluator evaluator(ideal_config());
    const auto source = stimulus.as_source();
    for (std::size_t k = 1; k <= 2; ++k) {
        const auto m = evaluator.measure_harmonic(source, k, 800);
        ASSERT_TRUE(m.phase.has_value()) << "k=" << k;
        const double delta = wrap_phase(m.phase->radians - phases[k - 1]);
        EXPECT_LT(std::abs(delta), 0.05) << "k=" << k;
    }
}

TEST(Evaluator, ThdOfDistortedToneMatchesConstruction) {
    // x = sin + 1% 2nd + 0.3% 3rd harmonic -> THD = -39.6 dB.
    ate::multitone_source stimulus(
        {ate::tone{1, 0.5, 0.2}, ate::tone{2, 0.005, 1.0}, ate::tone{3, 0.0015, 2.0}});
    sinewave_evaluator evaluator(ideal_config());
    const auto thd = evaluator.measure_thd(stimulus.as_source(), 4, 800);
    const double expected =
        20.0 * std::log10(std::sqrt(0.005 * 0.005 + 0.0015 * 0.0015) / 0.5);
    EXPECT_NEAR(thd.db, expected, 0.5);
    EXPECT_TRUE(thd.bounds_db.contains(expected));
}

TEST(Evaluator, CalibratedModeAutoCalibrates) {
    auto config = ideal_config();
    config.modulator.input_offset = 8e-3;
    config.offset = eval::offset_mode::calibrated;
    sinewave_evaluator evaluator(config);
    ate::multitone_source stimulus({ate::tone{1, 0.1, 0.0}});
    const auto m = evaluator.measure_harmonic(stimulus.as_source(), 1, 400);
    EXPECT_TRUE(m.amplitude.bounds_volts.contains(0.1));
    EXPECT_TRUE(evaluator.extractor().offset_calibrated());
}

TEST(Evaluator, NonIdealModulatorStillMeetsRelaxedAccuracy) {
    auto config = ideal_config();
    config.modulator = sd::modulator_params::cmos035();
    config.offset = eval::offset_mode::calibrated;
    sinewave_evaluator evaluator(config);
    ate::multitone_source stimulus({ate::tone{1, 0.2, 0.7}});
    const auto m = evaluator.measure_harmonic(stimulus.as_source(), 1, 1000);
    // Noise/offset/hysteresis push beyond the ideal bound but stay small.
    EXPECT_NEAR(m.amplitude.volts, 0.2, 2e-3);
}

TEST(Evaluator, MeasureThdRequiresTwoHarmonics) {
    sinewave_evaluator evaluator(ideal_config());
    ate::multitone_source stimulus({ate::tone{1, 0.1, 0.0}});
    EXPECT_THROW((void)evaluator.measure_thd(stimulus.as_source(), 1, 100),
                 precondition_error);
}

} // namespace
