// Diagnostic screening options and report enrichment: limit details
// (index, phase, signed margin), the continue-after-self-test and
// distortion acquisitions, bit-identity of the engine's lane groups with
// the scalar core::screen, the per-die report hook, and the CSV shard
// round trip.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/csv.hpp"
#include "core/screening.hpp"
#include "core/sweep_engine.hpp"
#include "dut/filters.hpp"
#include "gen/generator.hpp"

namespace {

using namespace bistna;
using namespace bistna::core;

analyzer_settings fast_settings() {
    analyzer_settings settings;
    settings.periods = 48;
    settings.distortion_periods = 96;
    settings.settle_periods = 16;
    settings.evaluator.calibration_periods = 256;
    return settings;
}

board_factory paper_factory(double sigma = 0.02) {
    return [sigma](std::uint64_t seed) {
        demonstrator_board board(gen::generator_params::ideal(),
                                 dut::make_paper_dut(sigma, seed));
        board.set_amplitude(millivolt(150.0));
        return board;
    };
}

/// A factory whose stimulus misses the self-test window (amplitude
/// programmed off-nominal), so every die fails the self-test.
board_factory detuned_factory() {
    return [](std::uint64_t seed) {
        demonstrator_board board(gen::generator_params::ideal(),
                                 dut::make_paper_dut(0.02, seed));
        board.set_amplitude(millivolt(120.0));
        return board;
    };
}

screening_options diagnostic_options() {
    screening_options options;
    options.continue_after_self_test_failure = true;
    options.measure_distortion = true;
    options.distortion_max_harmonic = 3;
    return options;
}

TEST(DiagnosticScreening, ReportCarriesLimitDetailsAndDiagnostics) {
    auto board = paper_factory()(3);
    network_analyzer analyzer(board, fast_settings());
    const auto mask = spec_mask::paper_lowpass();
    const auto report = screen(analyzer, mask, diagnostic_options());

    ASSERT_TRUE(report.self_test_passed);
    ASSERT_EQ(report.limits.size(), mask.limits.size());
    for (std::size_t i = 0; i < report.limits.size(); ++i) {
        const auto& result = report.limits[i];
        EXPECT_EQ(result.limit_index, i);
        // Signed margin: the worst-case distance of the guaranteed gain
        // interval to the window, positive iff the limit passed.
        const double expected_margin =
            std::min(result.measured_bounds_db.lo() - result.limit.gain_db_min,
                     result.limit.gain_db_max - result.measured_bounds_db.hi());
        EXPECT_DOUBLE_EQ(result.margin_db, expected_margin);
        EXPECT_EQ(result.passed, result.margin_db >= 0.0);
        // The phase of a low-pass at/above cutoff is distinctly negative.
        EXPECT_LT(result.phase_deg, 0.0);
    }
    EXPECT_NE(report.stimulus_phase_deg, 0.0);
    EXPECT_TRUE(report.distortion_measured);
    EXPECT_DOUBLE_EQ(report.thd_f_hz, mask.limits.front().f_hz);
    EXPECT_LT(report.thd_db, -20.0);
}

TEST(DiagnosticScreening, ContinueAfterSelfTestFailureKeepsMeasuring) {
    const auto mask = spec_mask::paper_lowpass();
    auto detuned = detuned_factory();

    // Default flow: early return, no limit data.
    auto board_a = detuned(3);
    network_analyzer analyzer_a(board_a, fast_settings());
    const auto plain = screen(analyzer_a, mask);
    EXPECT_FALSE(plain.self_test_passed);
    EXPECT_TRUE(plain.limits.empty());

    // Diagnostic flow: still failing, but fully measured.
    auto board_b = detuned(3);
    network_analyzer analyzer_b(board_b, fast_settings());
    const auto diagnostic = screen(analyzer_b, mask, diagnostic_options());
    EXPECT_FALSE(diagnostic.self_test_passed);
    EXPECT_FALSE(diagnostic.passed);
    EXPECT_EQ(diagnostic.limits.size(), mask.limits.size());
    EXPECT_TRUE(diagnostic.distortion_measured);
}

void expect_reports_identical(const std::vector<screening_report>& a,
                              const std::vector<screening_report>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t die = 0; die < a.size(); ++die) {
        EXPECT_EQ(a[die].passed, b[die].passed);
        EXPECT_EQ(a[die].self_test_passed, b[die].self_test_passed);
        EXPECT_EQ(a[die].stimulus_volts, b[die].stimulus_volts);
        EXPECT_EQ(a[die].stimulus_phase_deg, b[die].stimulus_phase_deg);
        EXPECT_EQ(a[die].offset_rate, b[die].offset_rate);
        EXPECT_EQ(a[die].distortion_measured, b[die].distortion_measured);
        // Bit-pattern compare: an unmeasured thd_db is the NaN sentinel,
        // which EXPECT_EQ on doubles would always flag as different.
        EXPECT_EQ(std::bit_cast<std::uint64_t>(a[die].thd_db),
                  std::bit_cast<std::uint64_t>(b[die].thd_db));
        ASSERT_EQ(a[die].limits.size(), b[die].limits.size());
        for (std::size_t i = 0; i < a[die].limits.size(); ++i) {
            EXPECT_EQ(a[die].limits[i].measured_db, b[die].limits[i].measured_db);
            EXPECT_EQ(a[die].limits[i].phase_deg, b[die].limits[i].phase_deg);
            EXPECT_EQ(a[die].limits[i].margin_db, b[die].limits[i].margin_db);
            EXPECT_EQ(a[die].limits[i].limit_index, b[die].limits[i].limit_index);
        }
    }
}

TEST(DiagnosticScreening, BatchedDiagnosticPathIsBitIdenticalToScalar) {
    const auto mask = spec_mask::paper_lowpass();
    const auto settings = fast_settings();
    const auto options = diagnostic_options();
    constexpr std::size_t dice = 6;

    // A lot where some dice fail the self-test outright (detuned stimulus)
    // would fail every die; instead mix: healthy factory with diagnostics
    // exercises the distortion stage, detuned one the continue path.
    for (const auto& factory : {paper_factory(), detuned_factory()}) {
        std::vector<screening_report> reference;
        for (std::uint64_t seed = 1; seed <= dice; ++seed) {
            auto board = factory(seed);
            network_analyzer analyzer(board, settings);
            reference.push_back(screen(analyzer, mask, options));
        }

        for (std::size_t lanes : {std::size_t{1}, std::size_t{3}, std::size_t{4}}) {
            sweep_engine_options banked_options;
            banked_options.threads = 2;
            banked_options.batch_lanes = lanes;
            sweep_engine banked(factory, settings, banked_options);
            expect_reports_identical(banked.screen_batch(mask, dice, 1, options),
                                     reference);
        }
    }
}

TEST(DiagnosticScreening, ReportHookSeesEveryDieInOrder) {
    const auto mask = spec_mask::paper_lowpass();
    std::vector<std::size_t> seen;
    std::size_t failing = 0;
    const auto lot = screen_lot_parallel(
        paper_factory(0.08), fast_settings(), mask, 8, /*first_seed=*/1,
        /*threads=*/2, /*batch_lanes=*/2, {},
        [&](std::size_t die, const screening_report& report) {
            seen.push_back(die);
            failing += report.passed ? 0 : 1;
        });
    ASSERT_EQ(seen.size(), 8u);
    for (std::size_t die = 0; die < seen.size(); ++die) {
        EXPECT_EQ(seen[die], die);
    }
    EXPECT_EQ(failing, lot.dice - lot.passed);
}

TEST(DiagnosticScreening, ReportsRoundTripThroughCsv) {
    const auto mask = spec_mask::paper_lowpass();
    sweep_engine engine(paper_factory(0.08), fast_settings(), {.threads = 2});
    const auto reports = engine.screen_batch(mask, 5, 1, diagnostic_options());

    // A shard that screened dice [41, 46): the die column carries the
    // global identities, so a collector can merge shards.
    const std::string path = "/tmp/bistna_screening_reports_roundtrip.csv";
    csv_write(screening_reports_to_csv(reports, /*first_die=*/41), path);
    std::vector<std::uint64_t> die_ids;
    const auto reloaded = screening_reports_from_csv(csv_read(path), &mask, &die_ids);
    std::remove(path.c_str());
    ASSERT_EQ(die_ids.size(), reports.size());
    for (std::size_t i = 0; i < die_ids.size(); ++i) {
        EXPECT_EQ(die_ids[i], 41u + i);
    }

    expect_reports_identical(reloaded, reports);
    // Interval bounds and limit windows survive too (spot check), and the
    // mask restored the limit names the CSV cannot carry.
    ASSERT_FALSE(reloaded.empty());
    ASSERT_FALSE(reloaded.front().limits.empty());
    EXPECT_EQ(reloaded.front().limits[0].measured_bounds_db,
              reports.front().limits[0].measured_bounds_db);
    EXPECT_EQ(reloaded.front().limits[0].limit.gain_db_min, mask.limits[0].gain_db_min);
    EXPECT_EQ(reloaded.front().limits[0].limit.name, mask.limits[0].name);

    // Aggregation over reloaded reports matches the original lot.
    const auto lot_a = aggregate_lot(reports);
    const auto lot_b = aggregate_lot(reloaded);
    EXPECT_EQ(lot_a.passed, lot_b.passed);
    EXPECT_EQ(lot_a.dice, lot_b.dice);
}

TEST(DiagnosticScreening, UnmeasuredThdSurvivesTheCsvRoundTrip) {
    const auto mask = spec_mask::paper_lowpass();
    sweep_engine engine(paper_factory(), fast_settings(), {.threads = 1});
    // Plain production options: the distortion stage never runs, so every
    // report carries the NaN sentinel, not a fake 0 dB reading.
    const auto reports = engine.screen_batch(mask, 2, 1);
    ASSERT_FALSE(reports.empty());
    for (const auto& report : reports) {
        EXPECT_FALSE(report.distortion_measured);
        EXPECT_TRUE(std::isnan(report.thd_db));
    }

    const std::string path = "/tmp/bistna_screening_unmeasured_thd.csv";
    csv_write(screening_reports_to_csv(reports), path);
    const auto reloaded = screening_reports_from_csv(csv_read(path), &mask);
    std::remove(path.c_str());
    ASSERT_EQ(reloaded.size(), reports.size());
    for (std::size_t i = 0; i < reloaded.size(); ++i) {
        EXPECT_FALSE(reloaded[i].distortion_measured);
        // The "nan" cell comes back as the canonical quiet NaN,
        // bit-identical to the sentinel it left as.
        EXPECT_EQ(std::bit_cast<std::uint64_t>(reloaded[i].thd_db),
                  std::bit_cast<std::uint64_t>(reports[i].thd_db));
    }
}

TEST(DiagnosticScreening, ReportCsvRejectsCorruptLimitCounts) {
    const auto mask = spec_mask::paper_lowpass();
    sweep_engine engine(paper_factory(), fast_settings(), {.threads = 1});
    const auto doc = screening_reports_to_csv(engine.screen_batch(mask, 1, 1));

    // Shards arrive from other machines: a negative, fractional, or
    // too-large limit count must fail cleanly instead of reading out of
    // bounds.
    for (double corrupt : {-1.0, 2.5, 1.0e18}) {
        auto bad = doc;
        bad.rows[0][9] = corrupt;
        EXPECT_THROW(screening_reports_from_csv(bad), precondition_error) << corrupt;
    }
}

// A lot where every die fails the self-test: the non-diagnostic batch
// must drop all lanes after stage 1 (no limits anywhere), matching the
// scalar early return.
TEST(DiagnosticScreening, NonDiagnosticBatchStillDropsFailedLanes) {
    const auto mask = spec_mask::paper_lowpass();
    sweep_engine_options options;
    options.threads = 1;
    options.batch_lanes = 4;
    sweep_engine engine(detuned_factory(), fast_settings(), options);
    const auto reports = engine.screen_batch(mask, 4, 1);
    for (const auto& report : reports) {
        EXPECT_FALSE(report.self_test_passed);
        EXPECT_TRUE(report.limits.empty());
        EXPECT_FALSE(report.distortion_measured);
    }
}

} // namespace
