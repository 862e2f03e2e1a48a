// Monte Carlo lot screening through the sweep engine's lane-major
// executor: a production flow's view of the paper's test-economics pitch.
// A lot of process-drawn dice is screened against the 1 kHz Butterworth
// spec mask with dice grouped into lockstep lanes (threads x lanes in
// flight).  The lot is submitted as an asynchronous job and consumed as a
// stream, so yield is visible while the lot is still running; the scalar
// oracle, core::screen_lot on one thread, then screens the same lot for a
// wall-clock comparison, and the two lot results are verified to agree.
//
//   ./screening_lot [--dice=N] [--sigma=S] [--threads=N] [--lanes=N]
//                   [--store=PATH] [--trace=PATH] [--metrics]
//
// --threads defaults to one worker per hardware thread and --lanes to 16,
// the lot shape lotbench times.  --dice, --threads and --lanes take
// non-negative integers; a malformed value ("3x", "two", "-1") prints an
// error and exits 1 before anything runs.
//
// --store appends one checksummed binary record per die to PATH as the
// reports stream off the job (store/lot_store.hpp) -- reopening an
// existing store resumes it, recovering from a torn tail if a previous
// run was killed mid-write.
//
// --trace writes a Chrome trace (chrome://tracing / ui.perfetto.dev) of
// the run's engine-stage spans; --metrics prints the counters and latency
// histograms the run accumulated.
#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "common/kernel.hpp"
#include "common/table.hpp"
#include "core/job_queue.hpp"
#include "core/screening.hpp"
#include "core/sweep_engine.hpp"
#include "dut/filters.hpp"
#include "store/lot_store.hpp"
#include "store/records.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace_export.hpp"

namespace {

using namespace bistna;

/// Die seed of the lot's first die (lot die i = seed kFirstSeed + i); also
/// the stored record id, matching what the shard runner's workers store,
/// so an example --store file and a sharded run of the same lot are
/// directly comparable.
constexpr std::uint64_t kFirstSeed = 1;

core::board_factory make_factory(double sigma) {
    return [sigma](std::uint64_t seed) {
        core::demonstrator_board board(gen::generator_params::ideal(),
                                       dut::make_paper_dut(sigma, seed));
        board.set_amplitude(millivolt(150.0));
        return board;
    };
}

/// Screen the lot as a streamed job on the shared pool: pull reports in
/// die order, keeping a live yield line on screen.  When `store` is
/// non-null every die is appended the moment it becomes deliverable
/// in order -- the store's bytes are then deterministic (frames in die
/// order, ids kFirstSeed + die) and byte-identical to what the shard
/// runner's merged store holds for the same lot, while a crash still
/// loses at most the buffered tail.
std::vector<core::screening_report>
screen_streamed(const core::board_factory& factory, const core::analyzer_settings& settings,
                const core::spec_mask& mask, std::size_t dice, std::size_t batch_lanes,
                const std::shared_ptr<core::job_queue>& queue, double& seconds,
                store::lot_store* sink = nullptr) {
    core::sweep_engine_options options;
    options.batch_lanes = batch_lanes;
    options.queue = queue;
    core::sweep_engine engine(factory, settings, options);

    const auto start = std::chrono::steady_clock::now();
    auto handle = engine.submit_screening(mask, dice, kFirstSeed);
    core::job_scope<core::screening_report> guard(handle);
    std::size_t failing = 0;
    while (auto item = handle.next_in_order()) {
        failing += item->value.passed ? 0 : 1;
        if (sink != nullptr) {
            sink->append(store::to_record(item->value, kFirstSeed + item->index));
        }
        std::cout << "\r  engine: " << item->index + 1
                  << "/" << dice << " dice screened, " << failing << " failing" << std::flush;
    }
    std::cout << "\n";
    auto reports = handle.results();
    seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    return reports;
}

bool lots_identical(const core::lot_result& a, const core::lot_result& b) {
    if (a.dice != b.dice || a.passed != b.passed ||
        a.gain_distributions.size() != b.gain_distributions.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.gain_distributions.size(); ++i) {
        const auto& x = a.gain_distributions[i];
        const auto& y = b.gain_distributions[i];
        if (x.mean != y.mean || x.stddev != y.stddev || x.min != y.min || x.max != y.max) {
            return false;
        }
    }
    return true;
}

int run(int argc, char** argv) {
    const auto dice = static_cast<std::size_t>(flag_u64(argc, argv, "dice", 64));
    const double sigma = flag_double(argc, argv, "sigma", 0.03);
    const auto threads = static_cast<std::size_t>(flag_u64(argc, argv, "threads", 0));
    const auto lanes = static_cast<std::size_t>(flag_u64(argc, argv, "lanes", 16));
    const std::string store_path = flag_text(argc, argv, "store");

    // Telemetry is opt-in: detached, every counter/span call is a no-op
    // branch, so the flags cost nothing when absent.
    const std::string trace_path = flag_text(argc, argv, "trace");
    const bool want_metrics = flag_switch(argc, argv, "metrics");
    telemetry::metric_registry registry;
    if (!trace_path.empty() || want_metrics) {
        registry.set_process_name("screening_lot");
        registry.attach();
        telemetry::set_thread_name("main");
    }

    // Production-flow settings: calibrated offset handling, default
    // 200-period acquisitions -- every die pays the grounded calibration
    // run plus one acquisition per mask limit.
    core::analyzer_settings settings;
    const auto mask = core::spec_mask::paper_lowpass();
    const auto factory = make_factory(sigma);

    // One worker pool serves the lot below (and could serve any number of
    // concurrent lots).
    const auto queue = std::make_shared<core::job_queue>(threads);

    std::cout << "=== Monte Carlo lot screening: " << dice << " dice, " << sigma * 100.0
              << " % components, " << queue->threads() << " threads x " << lanes
              << " lanes, " << kernel_isa() << " kernels ===\n\n";

    // Open (or resume) the persistent result store before measuring: a
    // torn tail from a killed run is reported and truncated here, never
    // silently read back.
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

    double engine_seconds = 0.0;
    const auto reports = screen_streamed(factory, settings, mask, dice, lanes, queue,
                                         engine_seconds, result_store.get());
    const auto lot = core::aggregate_lot(reports);
    const auto scalar_start = std::chrono::steady_clock::now();
    const auto scalar_lot = core::screen_lot(factory, settings, mask, dice, kFirstSeed);
    const double scalar_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - scalar_start)
            .count();
    const bool identical = lots_identical(lot, scalar_lot);

    std::cout << "\nyield: " << lot.passed << "/" << lot.dice << " ("
              << format_fixed(100.0 * lot.yield(), 1) << " %)\n\n";

    std::cout << "per-limit measured-gain distributions across the lot (dB):\n";
    ascii_table limits_table(
        {"limit", "f / Hz", "mean", "stddev", "min", "max", "p05", "p95"});
    for (std::size_t i = 0; i < lot.gain_distributions.size(); ++i) {
        const auto& dist = lot.gain_distributions[i];
        const auto& limit = mask.limits[i];
        limits_table.add_row({limit.name, format_fixed(limit.f_hz, 0),
                              format_fixed(dist.mean, 3), format_fixed(dist.stddev, 3),
                              format_fixed(dist.min, 3), format_fixed(dist.max, 3),
                              format_fixed(dist.p05, 3), format_fixed(dist.p95, 3)});
    }
    limits_table.print(std::cout);

    std::cout << "\nwall clock: " << format_fixed(engine_seconds * 1e3, 1) << " ms engine ("
              << queue->threads() << " threads x " << lanes << " lanes) vs "
              << format_fixed(scalar_seconds * 1e3, 1) << " ms scalar core::screen_lot -- "
              << format_fixed(scalar_seconds / engine_seconds, 2) << "x, lot results "
              << (identical ? "bit-identical" : "DIVERGED") << "\n";

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
    return identical ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
    try {
        return run(argc, argv);
    } catch (const configuration_error& error) {
        std::cerr << "screening_lot: " << error.what() << "\n";
        return 1;
    }
}
