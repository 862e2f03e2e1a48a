// Fault-trajectory diagnosis demo: build a fault dictionary on the nominal
// die (batched lockstep build, streamed with live progress), ship it
// through its binary form, inject known single faults into Monte Carlo lots,
// and report how often the classifier localizes the true fault on the dice
// that fail screening.  Every session -- the dictionary build and each
// diagnosed lot -- runs on one shared worker pool.
//
//   ./fault_diagnosis [--dice=N] [--sigma=S] [--threads=N] [--lanes=N]
//                     [--store=PATH] [--trace=PATH] [--metrics]
//
// --threads defaults to one worker per hardware thread and --lanes to 16,
// the lot shape lotbench times.  --dice, --threads and --lanes take
// non-negative integers; a malformed value ("3x", "two", "-1") prints an
// error and exits 1 before anything runs.
//
// The dictionary ships through its checksummed binary form
// (write_binary / read_binary); --store additionally appends every
// injected-lot report to a persistent binary record store as the dice
// stream off their jobs, in die order, so the store's bytes do not depend
// on --threads/--lanes.
//
// --trace writes a Chrome trace of the dictionary build and every lot's
// engine-stage spans; --metrics prints the accumulated counters and
// latency histograms.
#include <cmath>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "core/job_queue.hpp"
#include "core/screening.hpp"
#include "diag/classifier.hpp"
#include "diag/diagnose.hpp"
#include "diag/fault_model.hpp"
#include "diag/trajectory_builder.hpp"
#include "store/lot_store.hpp"
#include "store/records.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace_export.hpp"

namespace {

using namespace bistna;

struct cell_outcome {
    std::size_t dice = 0;
    std::size_t failing = 0;
    std::size_t top1 = 0;      ///< failing dice whose top hypothesis is the true fault
    std::size_t ambiguous = 0; ///< failing dice whose ambiguity set holds the true fault
    double severity_error = 0.0;
};

/// One-line live progress for a streamed lot (overwritten in place).
diag::diagnose_progress lot_progress(const std::string& label) {
    return [label](std::size_t completed, std::size_t total, std::size_t failing) {
        std::cout << "\r  " << label << ": " << completed << "/" << total
                  << " dice screened, " << failing << " failing" << std::flush;
        if (completed == total) {
            std::cout << "\n";
        }
    };
}

int run(int argc, char** argv) {
    reject_unknown_flags(argc, argv,
                         {"dice", "sigma", "threads", "lanes", "store", "trace", "metrics"});
    const auto dice = static_cast<std::size_t>(flag_u64(argc, argv, "dice", 8));
    const double sigma = flag_double(argc, argv, "sigma", 0.02);
    const auto threads = static_cast<std::size_t>(flag_u64(argc, argv, "threads", 0));
    const auto lanes = static_cast<std::size_t>(flag_u64(argc, argv, "lanes", 16));
    const std::string store_path = flag_text(argc, argv, "store");

    const std::string trace_path = flag_text(argc, argv, "trace");
    const bool want_metrics = flag_switch(argc, argv, "metrics");
    telemetry::metric_registry registry;
    if (!trace_path.empty() || want_metrics) {
        registry.set_process_name("fault_diagnosis");
        registry.attach();
        telemetry::set_thread_name("main");
    }

    const diag::die_design design; // realistic 0.35 um generator, nominal DUT
    core::analyzer_settings settings;
    const auto mask = core::spec_mask::paper_lowpass();
    const auto catalog = diag::default_catalog();
    const auto space = diag::signature_space::from_mask(mask, /*thd_max_harmonic=*/3);

    // One pool for every session this demo runs.
    const auto queue = std::make_shared<core::job_queue>(threads);

    std::cout << "=== fault-trajectory diagnosis: dictionary build (" << queue->threads()
              << " threads x " << lanes << " lanes) ===\n\n";
    diag::trajectory_build_options build;
    build.grid_points = 9;
    build.batch_lanes = lanes;
    build.queue = queue;
    build.on_progress = [](std::size_t completed, std::size_t total) {
        // Runs on this thread, once per grid point, in order.
        std::cout << "\r  acquired " << completed << "/" << total
                  << " severity grid points" << std::flush;
    };
    const auto dictionary =
        diag::build_dictionary(design, settings, space, catalog, build);
    std::cout << "\n";

    // Ship it: checksummed frames with the trajectory matrix stored
    // contiguously, loaded back the way a test floor would.
    const std::string dictionary_path = "fault_dictionary.bin";
    dictionary.write_binary(dictionary_path);
    const auto shipped = diag::fault_dictionary::read_binary(dictionary_path);
    std::cout << catalog.size() << " faults x " << build.grid_points
              << " severities -> " << dictionary_path << " (read_binary "
              << (shipped == dictionary ? "bit-exact" : "DIVERGED") << ")\n\n";

    std::cout << "trajectory extent per fault (normalized distance of the severity\n"
              << "endpoints from the healthy signature):\n";
    const diag::classifier clf(shipped);
    ascii_table extent_table({"fault", "severity range", "|min|", "|max|"});
    for (std::size_t j = 0; j < shipped.trajectories.size(); ++j) {
        const auto& trajectory = shipped.trajectories[j];
        const auto& spec = catalog[j];
        const auto lo = clf.classify(trajectory.points.front().signature);
        const auto hi = clf.classify(trajectory.points.back().signature);
        extent_table.add_row({diag::fault_name(trajectory.kind),
                              format_fixed(spec.severity_min, 3) + " .. " +
                                  format_fixed(spec.severity_max, 3),
                              format_fixed(lo.healthy_distance, 2),
                              format_fixed(hi.healthy_distance, 2)});
    }
    extent_table.print(std::cout);

    // Monte Carlo lots with one injected fault per cell: severities toward
    // both ends of each catalog range (inside the dictionary grid; signed
    // ranges are symmetric, so the middle would inject no fault at all).
    std::cout << "\n=== Monte Carlo lots with injected faults (" << dice
              << " dice/cell, " << sigma * 100.0 << " % components) ===\n\n";
    const std::vector<double> fractions = {1.0 / 12.0, 0.25, 0.75, 11.0 / 12.0};

    // Optional persistent record store: every lot's reports are appended
    // in die order as they stream in, with die ids globalized across cells
    // so a collector can tell the lots apart.
    std::unique_ptr<store::lot_store> result_store;
    if (!store_path.empty()) {
        result_store = std::make_unique<store::lot_store>(
            store::lot_store::open_append(store_path));
        const auto& recovery = result_store->recovery();
        if (recovery.existed) {
            std::cout << "store: resuming '" << store_path << "' with "
                      << recovery.valid_records << " records";
            if (recovery.tail_truncated) {
                std::cout << " (torn tail truncated at byte " << recovery.tail_offset
                          << ": " << recovery.tail_error << ")";
            }
            std::cout << "\n\n";
        }
    }
    std::uint64_t die_base = 0;
    const auto store_hook = [&](std::size_t die,
                                const core::screening_report& report) {
        if (result_store) {
            result_store->append(store::to_record(report, die_base + die));
        }
    };

    ascii_table result_table({"fault", "failing", "top-1", "in ambiguity set",
                              "mean |severity err|"});
    std::size_t total_failing = 0;
    std::size_t total_top1 = 0;
    for (const auto& spec : catalog) {
        cell_outcome outcome;
        const auto progress = lot_progress(diag::fault_name(spec.kind));
        for (double fraction : fractions) {
            const double severity =
                spec.severity_min + fraction * (spec.severity_max - spec.severity_min);
            diag::die_design faulty = design;
            faulty.dut_tolerance_sigma = sigma;
            core::analyzer_settings faulty_settings = settings;
            diag::apply_fault(spec.kind, severity, faulty, faulty_settings);

            const auto diagnosed = diag::screen_and_diagnose_lot(
                faulty.factory(), faulty_settings, mask, clf, dice,
                /*first_seed=*/1000 + static_cast<std::uint64_t>(fraction * 1000.0),
                threads, lanes, progress, queue, store_hook);
            die_base += dice;
            outcome.dice += dice;
            for (const auto& die : diagnosed.failing) {
                ++outcome.failing;
                if (die.result.ranked.empty()) {
                    continue;
                }
                if (die.result.ranked.front().kind == spec.kind) {
                    ++outcome.top1;
                    outcome.severity_error +=
                        std::abs(die.result.ranked.front().severity - severity);
                }
                for (const auto& hypothesis : die.result.ambiguity) {
                    if (hypothesis.kind == spec.kind) {
                        ++outcome.ambiguous;
                        break;
                    }
                }
            }
        }
        total_failing += outcome.failing;
        total_top1 += outcome.top1;
        result_table.add_row(
            {diag::fault_name(spec.kind),
             std::to_string(outcome.failing) + "/" + std::to_string(outcome.dice),
             outcome.failing == 0
                 ? "-"
                 : format_fixed(100.0 * static_cast<double>(outcome.top1) /
                                    static_cast<double>(outcome.failing),
                                1) + " %",
             outcome.failing == 0
                 ? "-"
                 : format_fixed(100.0 * static_cast<double>(outcome.ambiguous) /
                                    static_cast<double>(outcome.failing),
                                1) + " %",
             outcome.top1 == 0
                 ? "-"
                 : format_fixed(outcome.severity_error /
                                    static_cast<double>(outcome.top1),
                                4)});
    }
    std::cout << "\n";
    result_table.print(std::cout);

    // A fault-free control lot: failing dice here are spec marginalities,
    // and healthy dice must classify as "no fault".
    diag::die_design healthy = design;
    healthy.dut_tolerance_sigma = sigma;
    const auto control = diag::screen_and_diagnose_lot(
        healthy.factory(), settings, mask, clf, 4 * dice, /*first_seed=*/5000,
        threads, lanes, lot_progress("control lot"), queue, store_hook);
    std::size_t control_no_fault = 0;
    for (const auto& die : control.failing) {
        control_no_fault += die.result.fault_detected ? 0 : 1;
    }

    const double accuracy = total_failing == 0
                                ? 0.0
                                : static_cast<double>(total_top1) /
                                      static_cast<double>(total_failing);
    std::cout << "\ncontrol lot (no injected fault): " << control.failing.size() << "/"
              << control.lot.dice << " failing, " << control_no_fault
              << " of those classified no-fault\n";
    std::cout << "overall localization: " << total_top1 << "/" << total_failing << " ("
              << format_fixed(100.0 * accuracy, 1) << " %) of failing dice rank the "
              << "true fault first\n";
    if (result_store) {
        std::cout << "store: '" << result_store->path() << "' now holds "
                  << result_store->records() << " records ("
                  << result_store->bytes() << " bytes, "
                  << result_store->records_appended() << " appended this run)\n";
    }

    if (registry.is_attached()) {
        registry.detach();
        const auto snapshot = registry.snapshot();
        if (!trace_path.empty()) {
            telemetry::write_chrome_trace_file(trace_path, {&snapshot, 1});
            std::cout << "trace: " << trace_path << "\n";
        }
        if (want_metrics) {
            std::cout << "\n--- telemetry ---\n";
            telemetry::print_metrics(std::cout, snapshot);
        }
    }
    return accuracy >= 0.9 ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
    try {
        return run(argc, argv);
    } catch (const configuration_error& error) {
        std::cerr << "fault_diagnosis: " << error.what() << "\n";
        return 1;
    }
}
