#include "eval/batch_evaluator.hpp"

#include "common/error.hpp"
#include "telemetry/metrics.hpp"

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

void batch_evaluator::calibrate(std::span<const std::size_t> lane_ids) {
    if (configs_.front().offset != offset_mode::calibrated) {
        return;
    }
    std::vector<signature_extractor*> uncalibrated;
    for (signature_extractor* lane : lane_pointers(lane_ids)) {
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

batch_acquisition batch_evaluator::begin_acquisition(std::span<const std::size_t> lane_ids,
                                                     std::size_t k, std::size_t periods) {
    calibrate(lane_ids);
    acquisition_settings settings;
    settings.harmonic_k = k;
    settings.periods = periods;
    settings.offset = configs_.front().offset;
    return batch_acquisition(lane_pointers(lane_ids), settings);
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

} // namespace bistna::eval
