#include "eval/batch_evaluator.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "eval/acquire_plan.hpp"
#include "telemetry/span.hpp"

namespace bistna::eval {

batch_evaluator::batch_evaluator(std::vector<evaluator_config> configs,
                                 demod_table_cache& tables, calibration_share& calibration)
    : configs_(std::move(configs)), tables_(tables), calibration_share_(calibration) {
    BISTNA_EXPECTS(!configs_.empty(), "batch evaluator needs at least one lane");
    const evaluator_config& front = configs_.front();
    for (const evaluator_config& config : configs_) {
        BISTNA_EXPECTS(config.n_per_period == front.n_per_period &&
                           config.offset == front.offset &&
                           config.calibration_periods == front.calibration_periods,
                       "batch lanes must share n_per_period, offset mode and "
                       "calibration_periods (seeds and modulators may differ)");
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
    settings.n_per_period = configs_.front().n_per_period;
    settings.offset = configs_.front().offset;
    return settings;
}

void batch_evaluator::ensure_calibrated(std::span<const std::size_t> lane_ids) {
    if (configs_.front().offset != offset_mode::calibrated) {
        return;
    }
    const std::size_t cal_periods = configs_.front().calibration_periods;
    const std::size_t n = configs_.front().n_per_period;

    // Adopt published snapshots where possible.  Restores verify params and
    // stream position, so a transplanted lane is bit-identical to one that
    // calibrated itself.  Returns the uncalibrated lanes no snapshot fit.
    const auto restore = [&](std::span<const std::size_t> lanes_in) {
        std::vector<std::size_t> missed;
        for (std::size_t lane : lanes_in) {
            BISTNA_EXPECTS(lane < lanes(), "lane index out of range");
            if (extractors_[lane].offset_calibrated()) {
                continue;
            }
            const auto snapshot = calibration_share_.find(
                configs_[lane].modulator, configs_[lane].seed, cal_periods, n);
            if (snapshot == nullptr ||
                !extractors_[lane].try_restore_calibration(*snapshot)) {
                missed.push_back(lane);
            }
        }
        return missed;
    };
    // Run the grounded loop over `lanes_in` in one bank pass and publish
    // every outcome.
    const auto calibrate_and_publish = [&](const std::vector<std::size_t>& lanes_in) {
        std::vector<bistna::rng> before;
        before.reserve(lanes_in.size());
        for (std::size_t lane : lanes_in) {
            before.push_back(extractors_[lane].rng_state());
        }
        signature_extractor::calibrate_offset_batch(lane_pointers(lanes_in), cal_periods, n);
        for (std::size_t i = 0; i < lanes_in.size(); ++i) {
            const std::size_t lane = lanes_in[i];
            calibration_snapshot snapshot;
            snapshot.params = configs_[lane].modulator;
            snapshot.rng_before = before[i];
            snapshot.rng_after = extractors_[lane].rng_state();
            snapshot.offset_rate_1 = extractors_[lane].offset_rate_ch1();
            snapshot.offset_rate_2 = extractors_[lane].offset_rate_ch2();
            snapshot.calibration_samples = extractors_[lane].calibration_samples();
            calibration_share_.store(configs_[lane].seed, cal_periods, n,
                                     std::move(snapshot));
        }
    };

    const std::vector<std::size_t> missed = restore(lane_ids);
    if (missed.empty()) {
        return;
    }
    // Calibrate the first lane of each distinct (params, seed) key, all in
    // one pass; its duplicates then restore what it published.  A screening
    // group (one key) calibrates one lane, a dictionary group (a seed per
    // item) calibrates every lane at once.
    std::vector<std::size_t> leaders;
    std::vector<std::size_t> duplicates;
    for (std::size_t lane : missed) {
        const bool seen = std::any_of(leaders.begin(), leaders.end(), [&](std::size_t other) {
            return configs_[other].seed == configs_[lane].seed &&
                   configs_[other].modulator == configs_[lane].modulator;
        });
        (seen ? duplicates : leaders).push_back(lane);
    }
    calibrate_and_publish(leaders);
    // A full share refuses new snapshots; duplicates it left out calibrate
    // themselves.
    duplicates = restore(duplicates);
    if (!duplicates.empty()) {
        calibrate_and_publish(duplicates);
    }
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

std::vector<harmonic_measurement> batch_evaluator::assemble_harmonics(
    std::span<const std::size_t> lane_ids, const std::vector<signature_result>& sigs) {
    std::vector<harmonic_measurement> out;
    out.reserve(sigs.size());
    for (std::size_t i = 0; i < sigs.size(); ++i) {
        out.push_back(estimate_harmonic(sigs[i], configs_[lane_ids[i]].constants));
    }
    return out;
}

std::vector<harmonic_measurement> batch_evaluator::measure_harmonic_lanes_lane_major(
    std::span<const std::size_t> lane_ids, const double* lane_major, std::size_t k,
    std::size_t periods) {
    ensure_calibrated(lane_ids);
    const auto lane_ptrs = lane_pointers(lane_ids);
    const acquisition_settings settings = settings_for(k, periods);
    const auto tables = tables_.get(settings);
    telemetry::trace_span span("eval.modulate");
    span.arg("lanes", static_cast<double>(lane_ids.size()));
    span.arg("k", static_cast<double>(k));
    const auto sigs = signature_extractor::acquire_batch_lane_major(lane_ptrs, lane_major,
                                                                    settings, *tables);
    return assemble_harmonics(lane_ids, sigs);
}

std::vector<harmonic_measurement> batch_evaluator::measure_harmonic_lanes_shared(
    std::span<const std::size_t> lane_ids, std::span<const double> record, std::size_t k,
    std::size_t periods) {
    ensure_calibrated(lane_ids);
    const auto lane_ptrs = lane_pointers(lane_ids);
    const acquisition_settings settings = settings_for(k, periods);
    const auto tables = tables_.get(settings);
    telemetry::trace_span span("eval.modulate");
    span.arg("lanes", static_cast<double>(lane_ids.size()));
    span.arg("k", static_cast<double>(k));
    const auto sigs = signature_extractor::acquire_batch_shared(lane_ptrs, record,
                                                                settings, *tables);
    return assemble_harmonics(lane_ids, sigs);
}

std::vector<thd_measurement> batch_evaluator::measure_thd_lanes_lane_major(
    std::span<const std::size_t> lane_ids, const double* lane_major,
    std::size_t max_harmonic, std::size_t periods) {
    BISTNA_EXPECTS(max_harmonic >= 2, "THD needs at least harmonics 1..2");

    std::vector<std::vector<amplitude_measurement>> per_lane(lane_ids.size());
    for (std::size_t k = 1; k <= max_harmonic; ++k) {
        if (!demod_reference::alignment_ok(k, configs_.front().n_per_period)) {
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
