#include "core/screening.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/math_util.hpp"

namespace bistna::core {

spec_mask spec_mask::paper_lowpass() {
    spec_mask mask;
    mask.limits = {
        {200.0, -0.6, 0.4, "passband flatness"},
        {1000.0, -4.0, -2.2, "cutoff depth"},
        {4000.0, -26.5, -21.5, "stopband slope"},
    };
    return mask;
}

bool stimulus_self_test(const spec_mask& mask, double stimulus_volts) {
    return std::abs(stimulus_volts - mask.stimulus_volts_nominal) <=
           mask.stimulus_tolerance * mask.stimulus_volts_nominal;
}

limit_result evaluate_limit(const gain_limit& limit, const frequency_point& point,
                            std::size_t limit_index) {
    limit_result result;
    result.limit = limit;
    result.limit_index = limit_index;
    result.measured_db = point.gain_db;
    result.measured_bounds_db = point.gain_db_bounds;
    result.phase_deg = point.phase_deg;
    result.phase_deg_bounds = point.phase_deg_bounds;
    result.margin_db = std::min(point.gain_db_bounds.lo() - limit.gain_db_min,
                                limit.gain_db_max - point.gain_db_bounds.hi());
    result.passed = result.margin_db >= 0.0;
    return result;
}

screening_report screen(network_analyzer& analyzer, const spec_mask& mask,
                        const screening_options& options) {
    BISTNA_EXPECTS(!mask.limits.empty(), "spec mask has no limits");
    screening_report report;

    // Self-test: the calibration path must read the programmed stimulus.
    const auto& calibration = analyzer.calibrate();
    report.stimulus_volts = calibration.amplitude.volts;
    report.stimulus_phase_deg = rad_to_deg(calibration.phase.radians);
    report.offset_rate = analyzer.evaluator().extractor().offset_rate_ch1();
    report.self_test_passed = stimulus_self_test(mask, calibration.amplitude.volts);
    if (!report.self_test_passed && !options.continue_after_self_test_failure) {
        report.passed = false;
        return report; // BIST circuitry itself is broken; don't trust the DUT data
    }

    report.passed = report.self_test_passed;
    for (std::size_t i = 0; i < mask.limits.size(); ++i) {
        const auto& limit = mask.limits[i];
        const auto result =
            evaluate_limit(limit, analyzer.measure_point(hertz{limit.f_hz}), i);
        report.passed = report.passed && result.passed;
        report.limits.push_back(result);
    }

    if (options.measure_distortion) {
        const double f_hz =
            options.distortion_f_hz > 0.0 ? options.distortion_f_hz : mask.limits.front().f_hz;
        const auto distortion =
            analyzer.measure_distortion(hertz{f_hz}, options.distortion_max_harmonic);
        report.distortion_measured = true;
        report.thd_db = distortion.thd_db;
        report.thd_f_hz = f_hz;
    }
    return report;
}

lot_result aggregate_lot(const std::vector<screening_report>& reports) {
    lot_result lot;
    lot.dice = reports.size();

    std::size_t limit_count = 0;
    for (const auto& report : reports) {
        limit_count = std::max(limit_count, report.limits.size());
    }
    std::vector<std::vector<double>> gains(limit_count);
    for (const auto& report : reports) {
        lot.passed += report.passed ? 1 : 0;
        for (std::size_t i = 0; i < report.limits.size(); ++i) {
            gains[i].push_back(report.limits[i].measured_db);
        }
    }
    for (auto& samples : gains) {
        if (!samples.empty()) {
            lot.gain_distributions.push_back(summarize(std::move(samples)));
        }
    }
    return lot;
}

lot_result screen_lot(const board_factory& factory, const analyzer_settings& settings,
                      const spec_mask& mask, std::size_t dice, std::uint64_t first_seed,
                      const screening_options& options) {
    BISTNA_EXPECTS(dice > 0, "lot must contain at least one die");
    std::vector<screening_report> reports;
    reports.reserve(dice);
    for (std::size_t die = 0; die < dice; ++die) {
        demonstrator_board board = factory(first_seed + die);
        network_analyzer analyzer(board, settings);
        reports.push_back(screen(analyzer, mask, options));
    }
    return aggregate_lot(reports);
}

} // namespace bistna::core
