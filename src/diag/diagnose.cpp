#include "diag/diagnose.hpp"

#include <exception>
#include <utility>

#include "core/sweep_engine.hpp"

namespace bistna::diag {

diagnosed_lot screen_and_diagnose_lot(const core::board_factory& factory,
                                      const core::analyzer_settings& settings,
                                      const core::spec_mask& mask, const classifier& clf,
                                      std::size_t dice, std::uint64_t first_seed,
                                      std::size_t threads, std::size_t batch_lanes,
                                      const diagnose_progress& on_progress,
                                      std::shared_ptr<core::job_queue> queue,
                                      const core::die_report_hook& on_report) {
    const core::screening_options options = clf.dictionary().space.screening_options();

    core::sweep_engine_options engine_options;
    engine_options.threads = threads;
    engine_options.batch_lanes = batch_lanes;
    engine_options.queue = std::move(queue);
    core::sweep_engine engine(factory, settings, engine_options);
    auto handle = engine.submit_screening(mask, dice, first_seed, options);
    // If the classifier or the observer below throws, the engine must not
    // unwind while workers on a shared queue still run its job.
    core::job_scope<core::screening_report> guard(handle);

    // Consume the reports in die order: each failing die is classified
    // here, on the calling thread, as soon as it and every die before it
    // have completed -- diagnosis of early dice overlaps measurement of
    // late ones, a progress observer sees the lot fill in mid-flight, and
    // everything emitted (observer calls, `failing`) is in die order
    // whatever the completion order.
    diagnosed_lot result;
    std::vector<core::screening_report> reports;
    reports.reserve(dice);
    while (auto item = handle.next_in_order()) {
        if (on_report) {
            on_report(item->index, item->value);
        }
        if (!item->value.passed) {
            result.failing.push_back(
                diagnosed_die{item->index, item->value, clf.classify_report(item->value)});
        }
        reports.push_back(std::move(item->value));
        if (on_progress) {
            on_progress(reports.size(), dice, result.failing.size());
        }
    }
    if (auto error = handle.error()) {
        std::rethrow_exception(error);
    }
    // A cancelled lot (e.g. a shared queue torn down mid-flight) must not
    // aggregate never-measured dice as real failures.
    BISTNA_EXPECTS(handle.state() == core::job_state::succeeded,
                   "diagnosed lot was cancelled before every die completed");
    result.lot = core::aggregate_lot(reports);
    return result;
}

} // namespace bistna::diag
