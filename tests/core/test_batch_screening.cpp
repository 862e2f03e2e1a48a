// Bit-identity of the engine's lane groups (screening and Bode) against
// the scalar oracle -- core::screen and network_analyzer on fresh boards:
// any lane count, any thread count, dice counts that don't divide evenly,
// lanes that fail the self-test, per-point recalibration, and a DUT with
// no linear realization (the executor's scalar-render fallback).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "core/screening.hpp"
#include "core/sweep.hpp"
#include "core/sweep_engine.hpp"
#include "dut/filters.hpp"
#include "dut/nonlinear.hpp"

namespace {

using namespace bistna;
using core::analyzer_settings;
using core::screening_report;
using core::spec_mask;
using core::sweep_engine;
using core::sweep_engine_options;

analyzer_settings fast_settings() {
    analyzer_settings settings;
    settings.evaluator.modulator = sd::modulator_params::ideal();
    settings.evaluator.offset = eval::offset_mode::none;
    settings.periods = 100;
    return settings;
}

analyzer_settings calibrated_settings() {
    analyzer_settings settings;
    settings.evaluator.modulator = sd::modulator_params::cmos035();
    settings.evaluator.offset = eval::offset_mode::calibrated;
    settings.evaluator.calibration_periods = 256; // keep the test fast
    settings.periods = 64;
    return settings;
}

core::board_factory make_factory(double sigma) {
    return [sigma](std::uint64_t seed) {
        core::demonstrator_board board(gen::generator_params::ideal(),
                                       dut::make_paper_dut(sigma, seed));
        board.set_amplitude(millivolt(150.0));
        return board;
    };
}

/// Factory producing one die with broken stimulus circuitry (seed 3).
core::board_factory make_flawed_factory() {
    return [](std::uint64_t seed) {
        core::demonstrator_board board(gen::generator_params::ideal(),
                                       dut::make_paper_dut(0.01, seed));
        board.set_amplitude(seed == 3 ? millivolt(50.0) : millivolt(150.0));
        return board;
    };
}

void expect_reports_identical(const std::vector<screening_report>& a,
                              const std::vector<screening_report>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t die = 0; die < a.size(); ++die) {
        EXPECT_EQ(a[die].self_test_passed, b[die].self_test_passed) << "die " << die;
        EXPECT_EQ(a[die].stimulus_volts, b[die].stimulus_volts) << "die " << die;
        EXPECT_EQ(a[die].passed, b[die].passed) << "die " << die;
        EXPECT_EQ(a[die].offset_rate, b[die].offset_rate) << "die " << die;
        EXPECT_EQ(a[die].distortion_measured, b[die].distortion_measured) << "die " << die;
        // Bit-pattern compare: an unmeasured thd_db is the NaN sentinel.
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a[die].thd_db),
                  std::bit_cast<std::uint64_t>(b[die].thd_db))
            << "die " << die;
        ASSERT_EQ(a[die].limits.size(), b[die].limits.size()) << "die " << die;
        for (std::size_t i = 0; i < a[die].limits.size(); ++i) {
            EXPECT_EQ(a[die].limits[i].measured_db, b[die].limits[i].measured_db)
                << "die " << die << " limit " << i;
            EXPECT_EQ(a[die].limits[i].measured_bounds_db,
                      b[die].limits[i].measured_bounds_db)
                << "die " << die << " limit " << i;
            EXPECT_EQ(a[die].limits[i].passed, b[die].limits[i].passed);
        }
    }
}

std::vector<screening_report> screen_with_lanes(const core::board_factory& factory,
                                                const analyzer_settings& settings,
                                                std::size_t dice, std::size_t threads,
                                                std::size_t lanes,
                                                const core::screening_options& screening = {}) {
    sweep_engine_options options;
    options.threads = threads;
    options.batch_lanes = lanes;
    sweep_engine engine(factory, settings, options);
    return engine.screen_batch(spec_mask::paper_lowpass(), dice, 1, screening);
}

/// The oracle: core::screen on a fresh scalar analyzer per die.
std::vector<screening_report> scalar_screen(const core::board_factory& factory,
                                            const analyzer_settings& settings,
                                            std::size_t dice,
                                            const core::screening_options& screening = {}) {
    std::vector<screening_report> reports;
    for (std::uint64_t seed = 1; seed <= dice; ++seed) {
        auto board = factory(seed);
        core::network_analyzer analyzer(board, settings);
        reports.push_back(core::screen(analyzer, spec_mask::paper_lowpass(), screening));
    }
    return reports;
}

/// The Bode oracle: every point on a fresh board and analyzer seeded like
/// the engine's item, with the engine's one-time calibration injected when
/// `shared_calibration`, measuring its own otherwise.
std::vector<core::frequency_point> scalar_bode(const core::board_factory& factory,
                                               const analyzer_settings& settings,
                                               const std::vector<hertz>& frequencies,
                                               bool shared_calibration) {
    const std::uint64_t base_seed = sweep_engine_options{}.base_seed;
    std::optional<core::stimulus_calibration> calibration;
    if (shared_calibration) {
        auto board = factory(1);
        auto calibration_settings = settings;
        calibration_settings.evaluator.seed = core::sweep_item_seed(base_seed, 0);
        core::network_analyzer analyzer(board, calibration_settings);
        calibration = analyzer.calibrate();
    }
    std::vector<core::frequency_point> points;
    for (std::size_t i = 0; i < frequencies.size(); ++i) {
        auto board = factory(1);
        auto point_settings = settings;
        point_settings.evaluator.seed = core::sweep_item_seed(base_seed, i + 1);
        core::network_analyzer analyzer(board, point_settings);
        if (calibration) {
            analyzer.set_calibration(*calibration);
        }
        points.push_back(analyzer.measure_point(frequencies[i]));
    }
    return points;
}

void expect_points_identical(const std::vector<core::frequency_point>& expected,
                             const std::vector<core::frequency_point>& got,
                             std::size_t lanes) {
    ASSERT_EQ(expected.size(), got.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(expected[i].gain_db, got[i].gain_db) << "lanes " << lanes << " point " << i;
        EXPECT_EQ(expected[i].gain_db_bounds, got[i].gain_db_bounds);
        EXPECT_EQ(expected[i].phase_deg, got[i].phase_deg);
        EXPECT_EQ(expected[i].phase_deg_bounds, got[i].phase_deg_bounds);
        EXPECT_EQ(expected[i].ideal_gain_db, got[i].ideal_gain_db);
    }
}

TEST(BatchScreening, LaneCountsBitIdenticalToScalarPath) {
    const auto factory = make_factory(0.03);
    const auto settings = fast_settings();
    const std::size_t dice = 10; // deliberately not a multiple of the lane counts
    const auto scalar = scalar_screen(factory, settings, dice);
    expect_reports_identical(scalar, screen_with_lanes(factory, settings, dice, 2, 1));
    expect_reports_identical(scalar, screen_with_lanes(factory, settings, dice, 2, 4));
    expect_reports_identical(scalar, screen_with_lanes(factory, settings, dice, 2, 8));
    expect_reports_identical(scalar, screen_with_lanes(factory, settings, dice, 1, 4));
}

TEST(BatchScreening, CalibratedOffsetModeBitIdenticalAcrossLanes) {
    const auto factory = make_factory(0.02);
    const auto settings = calibrated_settings();
    const std::size_t dice = 6;
    const auto scalar = scalar_screen(factory, settings, dice);
    expect_reports_identical(scalar, screen_with_lanes(factory, settings, dice, 2, 1));
    expect_reports_identical(scalar, screen_with_lanes(factory, settings, dice, 2, 4));
    expect_reports_identical(scalar, screen_with_lanes(factory, settings, dice, 2, 6));
}

TEST(BatchScreening, SelfTestFailureLaneDoesNotPerturbNeighbours) {
    const auto factory = make_flawed_factory();
    const auto settings = fast_settings();
    const std::size_t dice = 8; // die seed 3 fails its stimulus self-test
    const auto scalar = scalar_screen(factory, settings, dice);
    ASSERT_FALSE(scalar[2].self_test_passed); // seeds start at 1
    EXPECT_TRUE(scalar[2].limits.empty());    // DUT data never trusted
    expect_reports_identical(scalar, screen_with_lanes(factory, settings, dice, 2, 4));
    expect_reports_identical(scalar, screen_with_lanes(factory, settings, dice, 2, 3));
}

TEST(BatchScreening, ScreenLotParallelMatchesSequentialScreenLot) {
    const auto factory = make_factory(0.04);
    const auto settings = fast_settings();
    const auto mask = spec_mask::paper_lowpass();
    const auto sequential = core::screen_lot(factory, settings, mask, 9, 1);
    const auto batched = core::screen_lot_parallel(factory, settings, mask, 9, 1,
                                                   /*threads=*/2, /*batch_lanes=*/4);
    EXPECT_EQ(sequential.dice, batched.dice);
    EXPECT_EQ(sequential.passed, batched.passed);
    ASSERT_EQ(sequential.gain_distributions.size(), batched.gain_distributions.size());
    for (std::size_t i = 0; i < sequential.gain_distributions.size(); ++i) {
        EXPECT_EQ(sequential.gain_distributions[i].mean, batched.gain_distributions[i].mean);
        EXPECT_EQ(sequential.gain_distributions[i].stddev,
                  batched.gain_distributions[i].stddev);
    }
}

/// A Bode batch through the engine at `lanes`.
std::vector<core::frequency_point> bode_with_lanes(const core::board_factory& factory,
                                                   const analyzer_settings& settings,
                                                   const std::vector<hertz>& frequencies,
                                                   std::size_t lanes,
                                                   bool share_calibration = true) {
    sweep_engine_options options;
    options.threads = 2;
    options.batch_lanes = lanes;
    options.share_calibration = share_calibration;
    sweep_engine engine(factory, settings, options);
    return engine.run(frequencies).points;
}

TEST(BatchScreening, BodeSweepLanesBitIdenticalToScalarPath) {
    const auto factory = make_factory(0.01);
    const auto settings = fast_settings();
    const auto frequencies = core::log_spaced(hertz{100.0}, kilohertz(10.0), 11);
    const auto scalar = scalar_bode(factory, settings, frequencies, true);
    for (std::size_t lanes : {std::size_t{1}, std::size_t{4}, std::size_t{5}}) {
        expect_points_identical(scalar, bode_with_lanes(factory, settings, frequencies, lanes),
                                lanes);
    }
}

TEST(BatchScreening, BodeSweepCalibratedOffsetModeBitIdentical) {
    const auto factory = make_factory(0.02);
    const auto settings = calibrated_settings();
    const auto frequencies = core::log_spaced(hertz{200.0}, kilohertz(8.0), 6);
    const auto scalar = scalar_bode(factory, settings, frequencies, true);
    for (std::size_t lanes : {std::size_t{1}, std::size_t{3}}) {
        expect_points_identical(scalar, bode_with_lanes(factory, settings, frequencies, lanes),
                                lanes);
    }
}

// Without a shared calibration every point characterizes the stimulus
// itself -- recalibrate_per_point re-measures it at the point's own
// clock, an unshared engine calibrates each point's analyzer -- and the
// lane groups still match the scalar analyzer.
TEST(BatchScreening, BodeSweepPerPointCalibrationLanesMatchScalarAnalyzer) {
    const auto factory = make_factory(0.01);
    const auto frequencies = core::log_spaced(hertz{200.0}, kilohertz(5.0), 5);
    for (const bool recalibrate : {true, false}) {
        auto settings = calibrated_settings();
        settings.recalibrate_per_point = recalibrate;
        const auto scalar = scalar_bode(factory, settings, frequencies, false);
        for (std::size_t lanes : {std::size_t{1}, std::size_t{4}}) {
            expect_points_identical(
                scalar, bode_with_lanes(factory, settings, frequencies, lanes, false), lanes);
        }
    }
}

// Regression: lane groups once reused the self-test calibration for every
// limit, while core::screen re-measures the stimulus before each one under
// recalibrate_per_point.
TEST(BatchScreening, RecalibratePerPointScreeningMatchesScalarScreen) {
    const auto factory = make_factory(0.02);
    auto settings = calibrated_settings();
    settings.recalibrate_per_point = true;
    core::screening_options screening;
    screening.measure_distortion = true;
    const std::size_t dice = 7;
    const auto scalar = scalar_screen(factory, settings, dice, screening);
    for (std::size_t lanes : {std::size_t{1}, std::size_t{4}}) {
        expect_reports_identical(
            scalar, screen_with_lanes(factory, settings, dice, 2, lanes, screening));
    }
}

// A DUT with an output nonlinearity has no linear realization, so the
// executor renders it per lane instead of through the state-space bank.
TEST(BatchScreening, NonBankableDutWithThdMatchesScalarScreen) {
    const core::board_factory factory = [](std::uint64_t seed) {
        core::demonstrator_board board(gen::generator_params::ideal(),
                                       dut::make_paper_dut_with_distortion(0.02, seed));
        board.set_amplitude(millivolt(150.0));
        return board;
    };
    ASSERT_EQ(factory(1).dut().linear_realization(), nullptr);
    const auto settings = fast_settings();
    core::screening_options screening;
    screening.measure_distortion = true;
    const std::size_t dice = 6;
    const auto scalar = scalar_screen(factory, settings, dice, screening);
    for (std::size_t lanes : {std::size_t{1}, std::size_t{4}}) {
        expect_reports_identical(
            scalar, screen_with_lanes(factory, settings, dice, 2, lanes, screening));
    }
}

} // namespace
