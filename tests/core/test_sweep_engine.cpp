// Parallel batch sweep engine: determinism across thread counts, agreement
// with the sequential reference paths, and failure propagation.
#include <gtest/gtest.h>

#include <set>

#include "common/error.hpp"
#include "core/sweep.hpp"
#include "core/sweep_engine.hpp"
#include "dut/filters.hpp"

namespace {

using namespace bistna;
using core::analyzer_settings;
using core::board_factory;
using core::frequency_point;
using core::spec_mask;
using core::sweep_engine;
using core::sweep_engine_options;

analyzer_settings fast_settings() {
    analyzer_settings settings;
    settings.evaluator.modulator = sd::modulator_params::ideal();
    settings.evaluator.offset = eval::offset_mode::none;
    settings.periods = 50;
    settings.settle_periods = 16;
    return settings;
}

board_factory paper_factory() {
    return [](std::uint64_t seed) {
        core::demonstrator_board board(gen::generator_params::ideal(),
                                       dut::make_paper_dut(0.01, seed));
        board.set_amplitude(millivolt(150.0));
        return board;
    };
}

sweep_engine engine_with_threads(std::size_t threads) {
    sweep_engine_options options;
    options.threads = threads;
    return sweep_engine(paper_factory(), fast_settings(), options);
}

void expect_bit_identical(const std::vector<frequency_point>& a,
                          const std::vector<frequency_point>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].f_wave.value, b[i].f_wave.value) << "point " << i;
        EXPECT_EQ(a[i].gain_db, b[i].gain_db) << "point " << i;
        EXPECT_EQ(a[i].gain_db_bounds, b[i].gain_db_bounds) << "point " << i;
        EXPECT_EQ(a[i].phase_deg, b[i].phase_deg) << "point " << i;
        EXPECT_EQ(a[i].phase_deg_bounds, b[i].phase_deg_bounds) << "point " << i;
        EXPECT_EQ(a[i].ideal_gain_db, b[i].ideal_gain_db) << "point " << i;
        EXPECT_EQ(a[i].ideal_phase_deg, b[i].ideal_phase_deg) << "point " << i;
    }
}

TEST(SweepEngine, BitIdenticalAcrossThreadCounts) {
    const auto frequencies = core::log_spaced(hertz{200.0}, kilohertz(4.0), 7);

    const auto serial = engine_with_threads(1).run(frequencies);
    const auto two = engine_with_threads(2).run(frequencies);
    const auto eight = engine_with_threads(8).run(frequencies);

    EXPECT_EQ(serial.threads_used, 1u);
    EXPECT_EQ(two.threads_used, 2u);
    EXPECT_EQ(eight.threads_used, 8u);
    expect_bit_identical(serial.points, two.points);
    expect_bit_identical(serial.points, eight.points);
}

TEST(SweepEngine, PointsComeBackInFrequencyOrder) {
    const auto frequencies = core::log_spaced(hertz{200.0}, kilohertz(4.0), 5);
    const auto report = engine_with_threads(4).run(frequencies);
    ASSERT_EQ(report.points.size(), frequencies.size());
    for (std::size_t i = 0; i < frequencies.size(); ++i) {
        EXPECT_EQ(report.points[i].f_wave.value, frequencies[i].value);
    }
}

TEST(SweepEngine, ReportAggregatesMatchPoints) {
    const auto frequencies = core::log_spaced(hertz{200.0}, kilohertz(2.0), 4);
    const auto report = engine_with_threads(2).run(frequencies);

    double worst = 0.0;
    for (const auto& p : report.points) {
        worst = std::max(worst, std::abs(p.gain_db - p.ideal_gain_db));
    }
    EXPECT_EQ(report.worst_gain_error_db, worst);
    EXPECT_EQ(report.gain_error_db_summary.count, frequencies.size());
    EXPECT_GE(report.max_gain_bound_width_db, 0.0);
    // The eq. (4) bounds are guaranteed enclosures, so the drawn-instance
    // truth must sit inside every interval.
    EXPECT_EQ(report.gain_bound_violations, 0u);
    EXPECT_GT(report.elapsed_seconds, 0.0);
}

TEST(SweepEngine, ScreenLotMatchesSequentialReference) {
    const auto mask = spec_mask::paper_lowpass();
    const std::size_t dice = 5;

    const auto sequential =
        core::screen_lot(paper_factory(), fast_settings(), mask, dice, /*first_seed=*/3);
    const auto parallel = core::aggregate_lot(
        engine_with_threads(4).submit_screening(mask, dice, /*first_seed=*/3).results());

    EXPECT_EQ(parallel.dice, sequential.dice);
    EXPECT_EQ(parallel.passed, sequential.passed);
    ASSERT_EQ(parallel.gain_distributions.size(), sequential.gain_distributions.size());
    for (std::size_t i = 0; i < parallel.gain_distributions.size(); ++i) {
        EXPECT_EQ(parallel.gain_distributions[i].mean, sequential.gain_distributions[i].mean);
        EXPECT_EQ(parallel.gain_distributions[i].stddev,
                  sequential.gain_distributions[i].stddev);
        EXPECT_EQ(parallel.gain_distributions[i].min, sequential.gain_distributions[i].min);
        EXPECT_EQ(parallel.gain_distributions[i].max, sequential.gain_distributions[i].max);
    }
}

TEST(SweepEngine, ScreenBatchReportsEveryDieInSeedOrder) {
    const auto mask = spec_mask::paper_lowpass();
    sweep_engine engine = engine_with_threads(3);
    const auto batch = engine.submit_screening(mask, 4, /*first_seed=*/1).results();
    ASSERT_EQ(batch.size(), 4u);
    for (const auto& report : batch) {
        EXPECT_TRUE(report.self_test_passed);
        EXPECT_EQ(report.limits.size(), mask.limits.size());
    }

    // Element i must be the same die the sequential path would screen.
    auto board = paper_factory()(2); // first_seed + 1
    core::network_analyzer analyzer(board, fast_settings());
    const auto direct = core::screen(analyzer, mask);
    ASSERT_EQ(batch[1].limits.size(), direct.limits.size());
    for (std::size_t i = 0; i < direct.limits.size(); ++i) {
        EXPECT_EQ(batch[1].limits[i].measured_db, direct.limits[i].measured_db);
    }
}

TEST(SweepEngine, ItemSeedsAreUniqueAndSchedulingIndependent) {
    std::set<std::uint64_t> seeds;
    for (std::size_t i = 0; i < 1000; ++i) {
        seeds.insert(core::sweep_item_seed(42, i));
    }
    EXPECT_EQ(seeds.size(), 1000u);
    EXPECT_EQ(core::sweep_item_seed(42, 7), core::sweep_item_seed(42, 7));
    EXPECT_NE(core::sweep_item_seed(42, 7), core::sweep_item_seed(43, 7));
}

TEST(SweepEngine, EmptyFrequencyListThrows) {
    auto engine = engine_with_threads(2);
    EXPECT_THROW(engine.run({}), precondition_error);
}

TEST(SweepEngine, WorkerExceptionPropagatesToCaller) {
    // A screening job builds every board on a worker, so the throw happens
    // there rather than on the submitting thread.
    sweep_engine_options options;
    options.threads = 4;
    board_factory throwing = [](std::uint64_t) -> core::demonstrator_board {
        throw configuration_error("factory exploded");
    };
    sweep_engine engine(throwing, fast_settings(), options);
    EXPECT_THROW((void)engine.submit_screening(spec_mask::paper_lowpass(), 6).results(),
                 configuration_error);
}

} // namespace
