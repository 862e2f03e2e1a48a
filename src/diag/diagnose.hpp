// Screening with diagnosis attached: the production entry point that
// submits a diagnostic screening job to the sweep engine and consumes its
// reports in die order as they complete -- every failing die is classified
// as soon as it and every die before it have landed, while the rest of the
// lot is still measuring.  The classifier's input comes straight out of
// the screening reports, no re-measuring.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/job_queue.hpp"
#include "core/screening.hpp"
#include "diag/classifier.hpp"

namespace bistna::diag {

struct diagnosed_die {
    std::size_t die = 0;
    core::screening_report report;
    diagnosis result;
};

struct diagnosed_lot {
    core::lot_result lot;
    std::vector<diagnosed_die> failing; ///< every failing die, in die order
};

/// Mid-lot observer: invoked on the calling thread, in die order, after
/// each die's report (and, for a failing die, its diagnosis) is in.
/// `failing` counts failing dice seen so far.
using diagnose_progress = std::function<void(std::size_t completed, std::size_t total,
                                             std::size_t failing)>;

/// Screen `dice` process draws with the diagnostic options the
/// classifier's dictionary space requires, attach a diagnosis to every
/// failing die.  Same seeding / determinism guarantees as
/// sweep_engine::submit_screening: the diagnosed lot is bit-identical at
/// any thread/lane count and any completion order.  `queue` optionally
/// runs the lot on a shared pool (e.g. alongside a dictionary build).
/// `on_report` sees every die's report on the calling thread in die order
/// while the lot is still measuring, so a result store appending from it
/// writes the same bytes at every thread/lane count.
diagnosed_lot screen_and_diagnose_lot(const core::board_factory& factory,
                                      const core::analyzer_settings& settings,
                                      const core::spec_mask& mask, const classifier& clf,
                                      std::size_t dice, std::uint64_t first_seed = 1,
                                      std::size_t threads = 0, std::size_t batch_lanes = 1,
                                      const diagnose_progress& on_progress = nullptr,
                                      std::shared_ptr<core::job_queue> queue = nullptr,
                                      const core::die_report_hook& on_report = nullptr);

} // namespace bistna::diag
