#include "eval/batch_evaluator.hpp"

#include "common/error.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace bistna::eval {

namespace {

/// Interned once; counter_add is a no-op unless a registry is attached.
struct calibration_counters {
    /// Distinct calibration keys that ran the grounded loop.
    telemetry::metric_id runs = telemetry::counter_id("eval.calibration.runs");
    /// Lanes that took the rates of a run instead.
    telemetry::metric_id restores = telemetry::counter_id("eval.calibration.restores");
};

const calibration_counters& counters() {
    static const calibration_counters ids;
    return ids;
}

std::vector<harmonic_measurement> estimate_harmonics(const std::vector<signature_result>& sigs) {
    std::vector<harmonic_measurement> out;
    out.reserve(sigs.size());
    for (const signature_result& sig : sigs) {
        out.push_back(estimate_harmonic(sig));
    }
    return out;
}

} // namespace

batch_evaluator::batch_evaluator(std::vector<evaluator_config> configs,
                                 calibration_share& calibration)
    : configs_(std::move(configs)), calibration_share_(calibration) {
    BISTNA_EXPECTS(!configs_.empty(), "batch evaluator needs at least one lane");
    const evaluator_config& front = configs_.front();
    for (const evaluator_config& config : configs_) {
        BISTNA_EXPECTS(config.offset == front.offset &&
                           config.calibration_periods == front.calibration_periods,
                       "batch lanes must share offset mode and calibration_periods "
                       "(seeds and modulators may differ)");
    }
    extractors_.reserve(configs_.size());
    for (const evaluator_config& config : configs_) {
        extractors_.emplace_back(config.modulator, config.seed);
    }
}

signature_extractor& batch_evaluator::extractor(std::size_t lane) {
    BISTNA_EXPECTS(lane < lanes(), "lane index out of range");
    return extractors_[lane];
}

acquisition_settings batch_evaluator::settings_for(std::size_t k,
                                                   std::size_t periods) const {
    acquisition_settings settings;
    settings.harmonic_k = k;
    settings.periods = periods;
    settings.offset = configs_.front().offset;
    return settings;
}

void batch_evaluator::ensure_calibrated(std::span<signature_extractor* const> lanes) {
    if (configs_.front().offset != offset_mode::calibrated) {
        return;
    }
    std::vector<signature_extractor*> uncalibrated;
    for (signature_extractor* lane : lanes) {
        if (!lane->offset_calibrated()) {
            uncalibrated.push_back(lane);
        }
    }
    if (uncalibrated.empty()) {
        return;
    }
    const std::size_t runs = signature_extractor::calibrate_offset_batch(
        uncalibrated, calibration_share_, configs_.front().calibration_periods);
    telemetry::counter_add(counters().runs, runs);
    telemetry::counter_add(counters().restores, uncalibrated.size() - runs);
}

std::vector<signature_extractor*>
batch_evaluator::lane_pointers(std::span<const std::size_t> lane_ids) {
    std::vector<signature_extractor*> out;
    out.reserve(lane_ids.size());
    for (std::size_t lane : lane_ids) {
        BISTNA_EXPECTS(lane < lanes(), "lane index out of range");
        out.push_back(&extractors_[lane]);
    }
    return out;
}

std::vector<harmonic_measurement> batch_evaluator::measure_harmonic_lanes_lane_major(
    std::span<const std::size_t> lane_ids, const double* lane_major, std::size_t k,
    std::size_t periods) {
    const auto lane_ptrs = lane_pointers(lane_ids);
    ensure_calibrated(lane_ptrs);
    const acquisition_settings settings = settings_for(k, periods);
    telemetry::trace_span span("eval.modulate");
    span.arg("lanes", static_cast<double>(lane_ids.size()));
    span.arg("k", static_cast<double>(k));
    const auto sigs =
        signature_extractor::acquire_batch_lane_major(lane_ptrs, lane_major, settings);
    return estimate_harmonics(sigs);
}

std::vector<harmonic_measurement> batch_evaluator::measure_harmonic_lanes_shared(
    std::span<const std::size_t> lane_ids, std::span<const double> record, std::size_t k,
    std::size_t periods) {
    const auto lane_ptrs = lane_pointers(lane_ids);
    ensure_calibrated(lane_ptrs);
    const acquisition_settings settings = settings_for(k, periods);
    telemetry::trace_span span("eval.modulate");
    span.arg("lanes", static_cast<double>(lane_ids.size()));
    span.arg("k", static_cast<double>(k));
    const auto sigs = signature_extractor::acquire_batch_shared(lane_ptrs, record, settings);
    return estimate_harmonics(sigs);
}

std::vector<thd_measurement> batch_evaluator::measure_thd_lanes_lane_major(
    std::span<const std::size_t> lane_ids, const double* lane_major,
    std::size_t max_harmonic, std::size_t periods) {
    BISTNA_EXPECTS(max_harmonic >= 2, "THD needs at least harmonics 1..2");

    std::vector<std::vector<amplitude_measurement>> per_lane(lane_ids.size());
    for (std::size_t k = 1; k <= max_harmonic; ++k) {
        if (!demod_reference::alignment_ok(k)) {
            continue; // documented: harmonics violating N mod 4k == 0 are skipped
        }
        const auto harmonics =
            measure_harmonic_lanes_lane_major(lane_ids, lane_major, k, periods);
        for (std::size_t i = 0; i < lane_ids.size(); ++i) {
            per_lane[i].push_back(harmonics[i].amplitude);
        }
    }

    std::vector<thd_measurement> out;
    out.reserve(lane_ids.size());
    for (std::size_t i = 0; i < lane_ids.size(); ++i) {
        out.push_back(compute_thd_lenient(per_lane[i]));
    }
    return out;
}

} // namespace bistna::eval
