// Dictionary construction through the sweep engine's generic acquisition:
// structure of the built dictionary, bit-identity of the engine's build
// against the scalar network_analyzer at any thread/lane count, and
// consistency between builder-side and report-side signature extraction.
#include <gtest/gtest.h>

#include "core/screening.hpp"
#include "core/sweep_engine.hpp"
#include "diag/classifier.hpp"
#include "diag/trajectory_builder.hpp"

namespace {

using namespace bistna;
using acquisition_result = core::sweep_engine::acquisition_result;

/// Reduced acquisition lengths: the suites below compare builds against
/// the scalar oracle, so absolute accuracy doesn't matter -- wall clock does.
core::analyzer_settings fast_settings() {
    core::analyzer_settings settings;
    settings.periods = 48;
    settings.distortion_periods = 96;
    settings.settle_periods = 16;
    settings.evaluator.calibration_periods = 256;
    return settings;
}

diag::trajectory_build_options fast_build(std::size_t threads, std::size_t lanes) {
    diag::trajectory_build_options options;
    options.grid_points = 4;
    options.threads = threads;
    options.batch_lanes = lanes;
    return options;
}

/// The oracle: one item's program on a fresh scalar network_analyzer --
/// calibrate(), measure_point() per frequency, measure_distortion().
acquisition_result scalar_acquisition(const core::sweep_engine::acquisition_item& item,
                                      core::analyzer_settings settings,
                                      const core::sweep_engine::acquisition_program& program) {
    auto board = item.make_board();
    settings.evaluator = item.evaluator;
    core::network_analyzer analyzer(board, settings);
    acquisition_result result;
    result.calibration = analyzer.calibrate();
    result.offset_rate = analyzer.evaluator().extractor().offset_rate_ch1();
    for (hertz f : program.frequencies) {
        result.points.push_back(analyzer.measure_point(f));
    }
    if (program.distortion_max_harmonic >= 2) {
        result.has_thd = true;
        const hertz f = program.distortion_f.value > 0.0 ? program.distortion_f
                                                         : program.frequencies.front();
        result.thd_db = analyzer.measure_distortion(f, program.distortion_max_harmonic).thd_db;
    }
    return result;
}

void expect_identical(const acquisition_result& got, const acquisition_result& expected) {
    EXPECT_EQ(got.calibration.amplitude.volts, expected.calibration.amplitude.volts);
    EXPECT_EQ(got.calibration.amplitude.bounds_volts,
              expected.calibration.amplitude.bounds_volts);
    EXPECT_EQ(got.calibration.phase.radians, expected.calibration.phase.radians);
    EXPECT_EQ(got.offset_rate, expected.offset_rate);
    EXPECT_EQ(got.has_thd, expected.has_thd);
    EXPECT_EQ(got.thd_db, expected.thd_db);
    ASSERT_EQ(got.points.size(), expected.points.size());
    for (std::size_t p = 0; p < got.points.size(); ++p) {
        EXPECT_EQ(got.points[p].gain_db, expected.points[p].gain_db) << "point " << p;
        EXPECT_EQ(got.points[p].gain_db_bounds, expected.points[p].gain_db_bounds);
        EXPECT_EQ(got.points[p].phase_deg, expected.points[p].phase_deg) << "point " << p;
        EXPECT_EQ(got.points[p].phase_deg_bounds, expected.points[p].phase_deg_bounds);
    }
}

const std::vector<diag::fault_spec> kTwoFaults = {
    {diag::fault_kind::biquad_cap_drift, -0.2, 0.2, "relative"},
    {diag::fault_kind::integrator_leak, 0.0, 0.02, "leak"},
};

TEST(TrajectoryBuilder, BuildsOneTrajectoryPerFaultOnTheSeverityGrid) {
    const auto space = diag::signature_space::from_mask(core::spec_mask::paper_lowpass(), 3);
    const auto dictionary = diag::build_dictionary(diag::die_design{}, fast_settings(),
                                                   space, kTwoFaults, fast_build(1, 1));

    EXPECT_EQ(dictionary.space, space);
    EXPECT_EQ(dictionary.healthy.size(), space.dimensions());
    ASSERT_EQ(dictionary.trajectories.size(), kTwoFaults.size());
    for (std::size_t j = 0; j < kTwoFaults.size(); ++j) {
        const auto& trajectory = dictionary.trajectories[j];
        EXPECT_EQ(trajectory.kind, kTwoFaults[j].kind);
        ASSERT_EQ(trajectory.points.size(), 4u);
        EXPECT_DOUBLE_EQ(trajectory.points.front().severity, kTwoFaults[j].severity_min);
        EXPECT_DOUBLE_EQ(trajectory.points.back().severity, kTwoFaults[j].severity_max);
        for (const auto& point : trajectory.points) {
            EXPECT_EQ(point.signature.size(), space.dimensions());
        }
    }
}

TEST(TrajectoryBuilder, BatchedBuildIsBitIdenticalToScalar) {
    const auto space = diag::signature_space::from_mask(core::spec_mask::paper_lowpass(), 3);
    const auto build = fast_build(1, 1);
    const auto plan = diag::make_dictionary_plan(diag::die_design{}, fast_settings(), space,
                                                 kTwoFaults, build);
    std::vector<acquisition_result> results;
    for (const auto& item : plan.items) {
        results.push_back(scalar_acquisition(item, fast_settings(), plan.program));
    }
    const auto scalar =
        diag::assemble_dictionary(space, kTwoFaults, build.grid_points, results);
    for (std::size_t lanes : {std::size_t{1}, std::size_t{3}, std::size_t{8}}) {
        const auto batched = diag::build_dictionary(diag::die_design{}, fast_settings(),
                                                    space, kTwoFaults, fast_build(2, lanes));
        EXPECT_EQ(batched, scalar) << "lanes = " << lanes;
    }
}

TEST(TrajectoryBuilder, BuildIsThreadCountInvariant) {
    const auto space = diag::signature_space::from_mask(core::spec_mask::paper_lowpass());
    const auto one = diag::build_dictionary(diag::die_design{}, fast_settings(), space,
                                            kTwoFaults, fast_build(1, 4));
    const auto four = diag::build_dictionary(diag::die_design{}, fast_settings(), space,
                                             kTwoFaults, fast_build(4, 4));
    EXPECT_EQ(one, four);
}

TEST(TrajectoryBuilder, SinglePointGridUsesSeverityMin) {
    const auto space = diag::signature_space::from_mask(core::spec_mask::paper_lowpass());
    auto options = fast_build(1, 1);
    options.grid_points = 1;
    const auto dictionary = diag::build_dictionary(diag::die_design{}, fast_settings(),
                                                   space, kTwoFaults, options);
    for (std::size_t j = 0; j < kTwoFaults.size(); ++j) {
        ASSERT_EQ(dictionary.trajectories[j].points.size(), 1u);
        EXPECT_DOUBLE_EQ(dictionary.trajectories[j].points.front().severity,
                         kTwoFaults[j].severity_min);
    }
}

// The dictionary's healthy signature and a diagnostic screening report of
// the same die must describe the same physical quantities: classifying the
// nominal die's own report lands within the healthy threshold.
TEST(TrajectoryBuilder, ReportSignatureIsCommensurateWithDictionary) {
    // Production acquisition lengths: the healthy-distance bound below is a
    // statement about real measurement noise, which the shortened suites
    // above would inflate.
    const core::analyzer_settings settings;
    const auto mask = core::spec_mask::paper_lowpass();
    const auto space = diag::signature_space::from_mask(mask, 3);
    const diag::die_design design;
    diag::trajectory_build_options options = fast_build(0, 4);
    options.grid_points = 5;
    const auto dictionary =
        diag::build_dictionary(design, settings, space,
                               {{diag::fault_kind::integrator_leak, 0.0, 0.02, "leak"}},
                               options);
    const diag::classifier clf(dictionary);

    auto board = design.factory()(options.nominal_seed);
    core::network_analyzer analyzer(board, settings);
    const auto report = core::screen(analyzer, mask, space.screening_options());
    ASSERT_TRUE(report.passed);
    const auto result = clf.classify_report(report);
    EXPECT_FALSE(result.fault_detected);
    EXPECT_LT(result.healthy_distance, clf.options().healthy_threshold);
}

// The generic acquisition path itself, on every item of a full-catalog
// plan: generator faults render their own staircases, evaluator-side
// faults share the healthy one, so lane groups mix both calibration
// shapes.  Every lane count -- 21 items divide by none of them -- matches
// the scalar analyzer item for item.
TEST(SweepEngineAcquire, LanesBitIdenticalToScalarAnalyzer) {
    const auto settings = fast_settings();
    const diag::die_design design;
    const auto space = diag::signature_space::from_mask(core::spec_mask::paper_lowpass(), 3);
    const auto plan = diag::make_dictionary_plan(design, settings, space,
                                                 diag::default_catalog(), fast_build(1, 1));
    ASSERT_EQ(plan.items.size(), 21u);

    std::vector<acquisition_result> expected;
    for (const auto& item : plan.items) {
        expected.push_back(scalar_acquisition(item, settings, plan.program));
    }
    for (std::size_t lanes : {std::size_t{1}, std::size_t{5}, std::size_t{16}}) {
        core::sweep_engine_options options;
        options.threads = 2;
        options.batch_lanes = lanes;
        core::sweep_engine engine(design.factory(), settings, options);
        const auto results = engine.acquire(plan.items, plan.program);
        ASSERT_EQ(results.size(), expected.size());
        for (std::size_t i = 0; i < results.size(); ++i) {
            SCOPED_TRACE("lanes " + std::to_string(lanes) + " item " + std::to_string(i));
            expect_identical(results[i], expected[i]);
        }
    }
}

} // namespace
