// Network-analyzer integration: measured Bode points must agree with the
// ground-truth response of the drawn DUT, within the eq. (4)/(5) bounds
// plus small documented systematics.
#include <gtest/gtest.h>

#include <cmath>

#include "core/network_analyzer.hpp"
#include "core/sweep.hpp"
#include "dut/filters.hpp"
#include "dut/nonlinear.hpp"

namespace {

using namespace bistna;
using core::analyzer_settings;
using core::demonstrator_board;
using core::network_analyzer;

analyzer_settings ideal_settings() {
    analyzer_settings settings;
    settings.evaluator.modulator = sd::modulator_params::ideal();
    settings.evaluator.offset = eval::offset_mode::none;
    settings.periods = 200;
    return settings;
}

TEST(NetworkAnalyzer, PassbandPointMatchesGroundTruth) {
    demonstrator_board board(gen::generator_params::ideal(), dut::make_paper_dut(0.0, 1));
    board.set_amplitude(millivolt(150.0));
    network_analyzer analyzer(board, ideal_settings());
    const auto point = analyzer.measure_point(hertz{200.0});
    EXPECT_NEAR(point.gain_db, point.ideal_gain_db, 0.1);
    EXPECT_NEAR(point.phase_deg, point.ideal_phase_deg, 1.0);
}

TEST(NetworkAnalyzer, CutoffPointShowsMinus3Db) {
    demonstrator_board board(gen::generator_params::ideal(), dut::make_paper_dut(0.0, 1));
    board.set_amplitude(millivolt(150.0));
    network_analyzer analyzer(board, ideal_settings());
    const auto point = analyzer.measure_point(kilohertz(1.0));
    EXPECT_NEAR(point.gain_db, -3.0, 0.35);
    EXPECT_NEAR(point.phase_deg, -90.0, 2.0);
}

TEST(NetworkAnalyzer, StopbandPointWithinBounds) {
    demonstrator_board board(gen::generator_params::ideal(), dut::make_paper_dut(0.0, 1));
    board.set_amplitude(millivolt(150.0));
    network_analyzer analyzer(board, ideal_settings());
    const auto point = analyzer.measure_point(kilohertz(8.0));
    // ~ -36 dB; eq. (4) bounds widen at low output amplitude.
    EXPECT_NEAR(point.gain_db, point.ideal_gain_db, 1.0);
    EXPECT_TRUE(point.gain_db_bounds.contains(point.gain_db));
    EXPECT_GT(point.gain_db_bounds.width(), 0.0);
}

TEST(NetworkAnalyzer, SweepTracksButterworthShape) {
    demonstrator_board board(gen::generator_params::ideal(), dut::make_paper_dut(0.0, 1));
    board.set_amplitude(millivolt(150.0));
    network_analyzer analyzer(board, ideal_settings());
    const auto points = analyzer.bode_sweep(core::log_spaced(hertz{150.0}, kilohertz(6.0), 7));
    for (const auto& p : points) {
        EXPECT_NEAR(p.gain_db, p.ideal_gain_db, 0.6) << p.f_wave.value << " Hz";
        EXPECT_NEAR(p.phase_deg, p.ideal_phase_deg, 4.0) << p.f_wave.value << " Hz";
    }
    // Monotonically falling gain and phase for a low-pass.
    for (std::size_t i = 1; i < points.size(); ++i) {
        EXPECT_LT(points[i].gain_db, points[i - 1].gain_db + 0.1);
        EXPECT_LT(points[i].phase_deg, points[i - 1].phase_deg + 2.0);
    }
}

TEST(NetworkAnalyzer, CalibrationIsCachedAndReused) {
    demonstrator_board board(gen::generator_params::ideal(), dut::make_paper_dut(0.0, 1));
    board.set_amplitude(millivolt(150.0));
    network_analyzer analyzer(board, ideal_settings());
    const auto& first = analyzer.calibrate();
    const auto& second = analyzer.calibrate();
    EXPECT_EQ(&first, &second); // one-time calibration (paper section III.C)
    EXPECT_NEAR(first.amplitude.volts, 0.3, 0.01);
}

TEST(NetworkAnalyzer, RecalibratePerPointAgreesWithCached) {
    demonstrator_board board(gen::generator_params::ideal(), dut::make_paper_dut(0.0, 1));
    board.set_amplitude(millivolt(150.0));
    const auto settings = ideal_settings();
    const hertz f{500.0};

    network_analyzer cached(board, settings);
    const auto a = cached.measure_point(f);

    // The stimulus measured through the calibration path at the point's own
    // clock, as a per-point recalibration would.
    const auto tb = sim::timebase::for_wave_frequency(f);
    const auto source = demonstrator_board::as_source(board.render(
        tb, settings.periods, core::signal_path::calibration, settings.settle_periods));
    eval::sinewave_evaluator evaluator(settings.evaluator);
    const auto per_point = core::make_stimulus_calibration(
        evaluator.measure_harmonic(source, 1, settings.periods));
    network_analyzer fresh(board, settings);
    fresh.set_calibration(per_point);
    const auto b = fresh.measure_point(f);

    // The clock-normalized stimulus makes one-time calibration equivalent.
    EXPECT_NEAR(per_point.amplitude.volts, cached.calibrate().amplitude.volts, 1e-3);
    EXPECT_NEAR(a.gain_db, b.gain_db, 0.05);
    EXPECT_NEAR(a.phase_deg, b.phase_deg, 0.5);
}

TEST(NetworkAnalyzer, DistortionModeReportsCalibratedHd) {
    demonstrator_board board(gen::generator_params::ideal(),
                             dut::make_paper_dut_with_distortion(0.0, 7));
    board.set_amplitude(millivolt(200.0)); // 0.4 V stimulus = 800 mVpp
    auto settings = ideal_settings();
    settings.distortion_periods = 400;
    network_analyzer analyzer(board, settings);
    const auto result = analyzer.measure_distortion(kilohertz(1.6), 3);
    ASSERT_EQ(result.harmonic_dbc.size(), 2u);
    EXPECT_NEAR(result.harmonic_dbc[0], -56.0, 3.0); // Fig. 10c HD2
    EXPECT_NEAR(result.harmonic_dbc[1], -62.0, 4.0); // Fig. 10c HD3
}

TEST(NetworkAnalyzer, NonIdealBoardStillTracksWithinTolerance) {
    gen::generator_params gen_params; // cmos035 defaults
    gen_params.seed = 5;
    demonstrator_board board(gen_params, dut::make_paper_dut(0.01, 3));
    board.set_amplitude(millivolt(150.0));
    auto settings = ideal_settings();
    settings.evaluator.modulator = sd::modulator_params::cmos035();
    settings.evaluator.offset = eval::offset_mode::calibrated;
    network_analyzer analyzer(board, settings);
    const auto point = analyzer.measure_point(hertz{400.0});
    EXPECT_NEAR(point.gain_db, point.ideal_gain_db, 0.3);
    EXPECT_NEAR(point.phase_deg, point.ideal_phase_deg, 2.0);
}

} // namespace
