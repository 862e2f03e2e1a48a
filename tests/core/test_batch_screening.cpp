// Bit-identity of the engine's lane groups (screening, Bode and dictionary
// items) against the scalar oracle -- core::screen and network_analyzer on
// fresh boards: any lane count, any thread count, dice counts that don't
// divide evenly, lanes that fail the self-test, a DUT with no linear
// realization (the executor's per-lane fallback), and record lengths that
// are no whole number of the executor's streamed blocks.
#include <gtest/gtest.h>

#include <bit>
#include <initializer_list>
#include <stdexcept>
#include <cstdint>
#include <vector>

#include "core/screening.hpp"
#include "core/sweep.hpp"
#include "core/sweep_engine.hpp"
#include "diag/fault_model.hpp"
#include "diag/trajectory_builder.hpp"
#include "dut/filters.hpp"
#include "dut/nonlinear.hpp"
#include "store/records.hpp"

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
    return engine.submit_screening(spec_mask::paper_lowpass(), dice, 1, screening).results();
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
/// the engine's item, with the engine's one-time calibration injected.
std::vector<core::frequency_point> scalar_bode(const core::board_factory& factory,
                                               const analyzer_settings& settings,
                                               const std::vector<hertz>& frequencies) {
    auto calibration_board = factory(1);
    auto calibration_settings = settings;
    calibration_settings.evaluator.seed = core::sweep_item_seed(core::bode_seed_root, 0);
    const auto calibration =
        core::network_analyzer(calibration_board, calibration_settings).calibrate();
    std::vector<core::frequency_point> points;
    for (std::size_t i = 0; i < frequencies.size(); ++i) {
        auto board = factory(1);
        auto point_settings = settings;
        point_settings.evaluator.seed = core::sweep_item_seed(core::bode_seed_root, i + 1);
        core::network_analyzer analyzer(board, point_settings);
        analyzer.set_calibration(calibration);
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
    sweep_engine_options options;
    options.threads = 2;
    options.batch_lanes = 4;
    sweep_engine engine(factory, settings, options);
    const auto batched = core::aggregate_lot(engine.submit_screening(mask, 9, 1).results());
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
                                                   std::size_t lanes) {
    sweep_engine_options options;
    options.threads = 2;
    options.batch_lanes = lanes;
    sweep_engine engine(factory, settings, options);
    return engine.run(frequencies).points;
}

TEST(BatchScreening, BodeSweepLanesBitIdenticalToScalarPath) {
    const auto factory = make_factory(0.01);
    const auto settings = fast_settings();
    const auto frequencies = core::log_spaced(hertz{100.0}, kilohertz(10.0), 11);
    const auto scalar = scalar_bode(factory, settings, frequencies);
    for (std::size_t lanes : {std::size_t{1}, std::size_t{4}, std::size_t{5}}) {
        expect_points_identical(scalar, bode_with_lanes(factory, settings, frequencies, lanes),
                                lanes);
    }
}

TEST(BatchScreening, BodeSweepCalibratedOffsetModeBitIdentical) {
    const auto factory = make_factory(0.02);
    const auto settings = calibrated_settings();
    const auto frequencies = core::log_spaced(hertz{200.0}, kilohertz(8.0), 6);
    const auto scalar = scalar_bode(factory, settings, frequencies);
    for (std::size_t lanes : {std::size_t{1}, std::size_t{3}}) {
        expect_points_identical(scalar, bode_with_lanes(factory, settings, frequencies, lanes),
                                lanes);
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

// --- The streamed executor on awkward shapes ---------------------------------
//
// The executor streams each stage frequency's DUT render through every
// acquisition at that frequency in blocks of 8 whole periods.  These lots
// use settle, harmonic and distortion lengths that are no multiple of the
// block (and a chop point inside a block), THD both where a harmonic stage
// shares its render and where none does, and compare every die or item
// with the scalar oracle through its store record, byte for byte.

/// Lengths that are no multiple of the 8-period block, even for chopped
/// mode: 22 periods chop at 11, inside the second block.
analyzer_settings awkward_settings(eval::offset_mode offset, bool cmos035) {
    analyzer_settings settings;
    settings.evaluator.modulator =
        cmos035 ? sd::modulator_params::cmos035() : sd::modulator_params::ideal();
    settings.evaluator.offset = offset;
    settings.evaluator.calibration_periods = 64;
    settings.settle_periods = 5;
    settings.periods = 22;
    settings.distortion_periods = 38;
    return settings;
}

/// Every die's store record, engine at `lanes` against core::screen.
void expect_lot_records_match_scalar(const core::board_factory& factory,
                                     const analyzer_settings& settings, std::size_t dice,
                                     const core::screening_options& screening,
                                     std::initializer_list<std::size_t> lane_counts) {
    const auto scalar = scalar_screen(factory, settings, dice, screening);
    for (const std::size_t lanes : lane_counts) {
        const auto streamed = screen_with_lanes(factory, settings, dice, 2, lanes, screening);
        ASSERT_EQ(streamed.size(), dice);
        for (std::size_t die = 0; die < dice; ++die) {
            EXPECT_EQ(store::to_record(streamed[die], die), store::to_record(scalar[die], die))
                << "lanes " << lanes << " die " << die;
        }
    }
}

core::board_factory make_parts_factory(bool cmos035) {
    return [cmos035](std::uint64_t seed) {
        core::demonstrator_board board(
            cmos035 ? gen::generator_params{} : gen::generator_params::ideal(),
            dut::make_paper_dut(0.03, seed));
        board.set_amplitude(millivolt(150.0));
        return board;
    };
}

TEST(BatchScreening, StreamedLotMatchesScalarAtAwkwardLengths) {
    for (const eval::offset_mode offset :
         {eval::offset_mode::calibrated, eval::offset_mode::chopped, eval::offset_mode::none}) {
        for (const bool cmos035 : {false, true}) {
            // THD at a mask frequency (its render shared with that limit's
            // stage) and at one no harmonic stage measures.
            for (const double thd_f_hz : {1000.0, 1600.0}) {
                SCOPED_TRACE(testing::Message() << "offset " << static_cast<int>(offset)
                                                << " cmos035 " << cmos035 << " thd at "
                                                << thd_f_hz << " Hz");
                core::screening_options screening;
                screening.measure_distortion = true;
                screening.distortion_f_hz = thd_f_hz;
                screening.distortion_max_harmonic = 4;
                expect_lot_records_match_scalar(make_parts_factory(cmos035),
                                                awkward_settings(offset, cmos035), 17,
                                                screening, {1, 5, 16});
            }
        }
    }
}

TEST(BatchScreening, StreamedLotWithSelfTestDropsMatchesScalar) {
    for (const bool continue_after : {false, true}) {
        SCOPED_TRACE(testing::Message() << "continue_after_self_test_failure "
                                        << continue_after);
        core::screening_options screening;
        screening.measure_distortion = true;
        screening.continue_after_self_test_failure = continue_after;
        expect_lot_records_match_scalar(make_flawed_factory(),
                                        awkward_settings(eval::offset_mode::calibrated, true),
                                        8, screening, {1, 5, 16});
    }
}

// A DUT with an output nonlinearity streams its blocks through each lane's
// process_block, which keeps its state between blocks.
TEST(BatchScreening, StreamedPerLaneFallbackMatchesScalar) {
    const core::board_factory factory = [](std::uint64_t seed) {
        core::demonstrator_board board(gen::generator_params::ideal(),
                                       dut::make_paper_dut_with_distortion(0.02, seed));
        board.set_amplitude(millivolt(150.0));
        return board;
    };
    ASSERT_EQ(factory(1).dut().linear_realization(), nullptr);
    for (const eval::offset_mode offset : {eval::offset_mode::chopped, eval::offset_mode::none}) {
        SCOPED_TRACE(testing::Message() << "offset " << static_cast<int>(offset));
        core::screening_options screening;
        screening.measure_distortion = true;
        expect_lot_records_match_scalar(factory, awkward_settings(offset, false), 7, screening,
                                        {1, 5, 16});
    }
}

// A Bode batch: every lane of a group at its own frequency.
TEST(BatchScreening, StreamedBodeBatchAtPerLaneFrequenciesMatchesScalar) {
    const auto factory = make_factory(0.01);
    for (const eval::offset_mode offset :
         {eval::offset_mode::calibrated, eval::offset_mode::chopped}) {
        const auto settings = awkward_settings(offset, true);
        const auto frequencies = core::log_spaced(hertz{100.0}, kilohertz(10.0), 17);
        const auto scalar = scalar_bode(factory, settings, frequencies);
        for (const std::size_t lanes : {std::size_t{1}, std::size_t{5}, std::size_t{16}}) {
            const auto streamed = bode_with_lanes(factory, settings, frequencies, lanes);
            ASSERT_EQ(streamed.size(), scalar.size());
            for (std::size_t i = 0; i < scalar.size(); ++i) {
                sweep_engine::acquisition_result got;
                got.points = {streamed[i]};
                sweep_engine::acquisition_result expected;
                expected.points = {scalar[i]};
                EXPECT_EQ(store::to_record(got, i), store::to_record(expected, i))
                    << "offset " << static_cast<int>(offset) << " lanes " << lanes
                    << " point " << i;
            }
        }
    }
}

/// The dictionary oracle: one item's program on a fresh scalar analyzer.
sweep_engine::acquisition_result
scalar_item(const sweep_engine::acquisition_item& item, analyzer_settings settings,
            const sweep_engine::acquisition_program& program) {
    auto board = item.make_board();
    settings.evaluator = item.evaluator;
    core::network_analyzer analyzer(board, settings);
    sweep_engine::acquisition_result result;
    result.calibration = analyzer.calibrate();
    result.offset_rate = analyzer.evaluator().extractor().offset_rate_ch1();
    for (const hertz f : program.frequencies) {
        result.points.push_back(analyzer.measure_point(f));
    }
    result.has_thd = true;
    result.thd_db = analyzer.measure_distortion(program.distortion_f,
                                                program.distortion_max_harmonic)
                        .thd_db;
    return result;
}

// A dictionary slice of generator faults: the items' staircases differ, so
// the calibrate stage transposes them block by block and the DUT bank reads
// one staircase per lane.
TEST(BatchScreening, StreamedDictionarySliceWithDistinctStaircasesMatchesScalar) {
    const auto settings = awkward_settings(eval::offset_mode::calibrated, false);
    auto space = diag::signature_space::from_mask(spec_mask::paper_lowpass(), 3);
    space.thd_f_hz = 1600.0; // a frequency no harmonic stage measures
    diag::trajectory_build_options build;
    build.grid_points = 5;
    const std::vector<diag::fault_spec> faults = {
        {diag::fault_kind::cap_unit_mismatch, -0.3, 0.3, "relative"},
        {diag::fault_kind::biquad_cap_drift, -0.2, 0.2, "relative"},
        {diag::fault_kind::integrator_leak, 0.0, 0.02, "leak"},
    };
    const auto plan =
        diag::make_dictionary_plan(diag::die_design{}, settings, space, faults, build);
    ASSERT_EQ(plan.program.distortion_f.value, 1600.0);
    std::vector<store::record> expected;
    for (std::size_t i = 0; i < plan.items.size(); ++i) {
        expected.push_back(
            store::to_record(scalar_item(plan.items[i], settings, plan.program), i));
    }
    const core::board_factory unused = [](std::uint64_t) -> core::demonstrator_board {
        throw std::logic_error("acquisition items build their own boards");
    };
    for (const std::size_t lanes : {std::size_t{1}, std::size_t{5}, std::size_t{16}}) {
        sweep_engine_options options;
        options.threads = 2;
        options.batch_lanes = lanes;
        sweep_engine engine(unused, settings, options);
        const auto results = engine.submit_acquisition(plan.items, plan.program).results();
        ASSERT_EQ(results.size(), expected.size());
        for (std::size_t i = 0; i < results.size(); ++i) {
            EXPECT_EQ(store::to_record(results[i], i), expected[i])
                << "lanes " << lanes << " item " << i;
        }
    }
}

} // namespace
