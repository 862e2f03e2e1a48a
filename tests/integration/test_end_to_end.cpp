// End-to-end properties spanning the whole stack: the paper's headline
// claims in miniature.
#include <gtest/gtest.h>

#include <cmath>

#include "ate/multitone.hpp"
#include "baseline/dft_analyzer.hpp"
#include "common/math_util.hpp"
#include "core/network_analyzer.hpp"
#include "dsp/spectrum.hpp"
#include "dut/filters.hpp"
#include "eval/evaluator.hpp"
#include "gen/generator.hpp"

namespace {

using namespace bistna;

TEST(EndToEnd, GeneratorFeedsEvaluatorThroughCalibrationPath) {
    // BIST self-verification (paper section II): bypass the DUT and check
    // the evaluator reads the generator's programmed amplitude.
    core::demonstrator_board board(gen::generator_params::ideal(),
                                   std::make_unique<dut::bypass_dut>());
    board.set_amplitude(millivolt(125.0));
    const auto tb = sim::timebase::for_wave_frequency(kilohertz(1.0));
    auto record = board.render(tb, 200, core::signal_path::calibration);
    const auto source = core::demonstrator_board::as_source(std::move(record));

    eval::evaluator_config config;
    config.modulator = sd::modulator_params::ideal();
    config.offset = eval::offset_mode::none;
    eval::sinewave_evaluator evaluator(config);
    const auto m = evaluator.measure_harmonic(source, 1, 200);
    EXPECT_NEAR(m.amplitude.volts, 0.25, 0.01);
}

TEST(EndToEnd, EvaluatorAgreesWithCoherentDftBaseline) {
    // The BIST evaluator (1-bit signatures) and the full-resolution DFT
    // baseline must agree within the eq. (4) interval.
    const auto stimulus = ate::multitone_source::fig9_stimulus();
    eval::evaluator_config config;
    config.modulator = sd::modulator_params::ideal();
    config.offset = eval::offset_mode::none;
    eval::sinewave_evaluator evaluator(config);

    std::vector<double> record;
    for (std::size_t n = 0; n < 96 * 500; ++n) {
        record.push_back(stimulus.sample(n));
    }
    baseline::dft_analyzer dft;
    for (std::size_t k = 1; k <= 3; ++k) {
        const auto bist = evaluator.measure_harmonic(stimulus.as_source(), k, 500);
        const auto reference = dft.measure(record, k);
        EXPECT_NEAR(bist.amplitude.volts, reference.amplitude,
                    bist.amplitude.bounds_volts.radius() + 1e-3)
            << "k=" << k;
    }
}

TEST(EndToEnd, SeventyDbDynamicRangeWithEnoughPeriods) {
    // Headline claim: >70 dB dynamic range.  A -70 dBFS tone (0.22 mV on
    // the 0.7 V scale) must be measurable within ~2 dB given enough M.
    const double amplitude = 0.7 * std::pow(10.0, -70.0 / 20.0);
    ate::multitone_source stimulus({ate::tone{1, amplitude, 0.4}});
    eval::evaluator_config config;
    config.modulator = sd::modulator_params::ideal();
    config.offset = eval::offset_mode::none;
    eval::sinewave_evaluator evaluator(config);

    const auto m = evaluator.measure_harmonic(stimulus.as_source(), 1, 20000);
    const double error_db = std::abs(m.amplitude.dbfs - (-70.0));
    EXPECT_LT(error_db, 2.0);
}

TEST(EndToEnd, AccuracySelectableByM) {
    // "the accuracy of the evaluation can be selected by choosing a proper
    // number of periods M" -- quadrupling MN should roughly quarter the
    // guaranteed bound width.
    ate::multitone_source stimulus({ate::tone{1, 0.1, 0.0}});
    eval::evaluator_config config;
    config.modulator = sd::modulator_params::ideal();
    config.offset = eval::offset_mode::none;
    eval::sinewave_evaluator evaluator(config);
    const auto series =
        evaluator.amplitude_convergence(stimulus.as_source(), 1, {100, 400, 1600});
    ASSERT_EQ(series.size(), 3u);
    EXPECT_NEAR(series[0].bounds_volts.width() / series[1].bounds_volts.width(), 4.0, 0.2);
    EXPECT_NEAR(series[1].bounds_volts.width() / series[2].bounds_volts.width(), 4.0, 0.2);
}

TEST(EndToEnd, FullBodePointOnNonIdealSilicon) {
    // Everything non-ideal at once: mismatched generator, noisy modulators,
    // 1 % board components.  The analyzer must still land on the drawn
    // instance's true response within a fraction of a dB in the passband.
    gen::generator_params gen_params;
    gen_params.seed = 11;
    core::demonstrator_board board(gen_params, dut::make_paper_dut(0.01, 13));
    board.set_amplitude(millivolt(150.0));

    core::analyzer_settings settings;
    settings.evaluator.modulator = sd::modulator_params::cmos035();
    settings.evaluator.offset = eval::offset_mode::calibrated;
    settings.periods = 200;
    core::network_analyzer analyzer(board, settings);

    const auto p = analyzer.measure_point(hertz{300.0});
    EXPECT_NEAR(p.gain_db, p.ideal_gain_db, 0.3);
    EXPECT_NEAR(p.phase_deg, p.ideal_phase_deg, 2.5);
}

TEST(EndToEnd, GeneratorSpectrumHasPaperGradeSfdr) {
    // Fig. 8b shape: with the calibrated 0.35 um non-idealities the
    // generator's in-band SFDR lands near 70 dB.
    gen::generator_params params; // cmos035 defaults
    params.seed = 21;
    gen::sinewave_generator generator(params);
    generator.set_amplitude(millivolt(250.0)); // 1 Vpp output
    generator.settle(64);
    const auto wave = generator.generate(16 * 2048);
    const auto metrics = dsp::analyze_tone(wave, 16.0, 1.0, 8);
    EXPECT_GT(metrics.sfdr_db, 55.0);
    EXPECT_LT(metrics.sfdr_db, 90.0);
    EXPECT_LT(metrics.thd_db, -55.0);
}

} // namespace
