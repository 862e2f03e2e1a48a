// Multi-process lot runner: split a lot manifest into shards, fan them
// across N worker processes, survive dead and straggler workers by retry,
// and merge the shard stores into one lot store that is bit-identical to
// a single-process run -- at any shard count, worker count and completion
// order.
//
//   ./shard_coordinator --manifest=lot.json --out=lot.store
//                       [--shards=N] [--workers=N] [--shard-dir=DIR]
//                       [--worker=PATH] [--timeout-s=T] [--retries=N]
//                       [--flush-interval=N] [--trace=PATH] [--metrics]
//
// --workers caps the processes running at once (default: one per shard);
// --worker points at the worker binary (default: shard_worker next to
// this executable); --timeout-s enables straggler kill + retry;
// --retries is the total attempts allowed per shard (default 3).
// --trace writes one merged Chrome trace (chrome://tracing /
// ui.perfetto.dev) with the coordinator and every worker as its own
// process lane; --metrics prints the fleet-wide merged counters and
// histograms.  Either flag turns on worker telemetry sidecars.
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <vector>

#include "common/cli.hpp"
#include "shard/coordinator.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/snapshot.hpp"
#include "telemetry/trace_export.hpp"

int main(int argc, char** argv) {
    using namespace bistna;

    const std::string manifest_path = flag_text(argc, argv, "manifest");
    const std::string out_path = flag_text(argc, argv, "out");
    if (manifest_path.empty() || out_path.empty()) {
        std::fprintf(stderr,
                     "usage: shard_coordinator --manifest=lot.json --out=lot.store\n"
                     "  [--shards=N] [--workers=N] [--shard-dir=DIR] [--worker=PATH]\n"
                     "  [--timeout-s=T] [--retries=N] [--flush-interval=N]\n"
                     "  [--trace=trace.json] [--metrics]\n");
        return 2;
    }

    try {
        const shard::lot_manifest manifest = shard::lot_manifest::load(manifest_path);

        const std::string trace_path = flag_text(argc, argv, "trace");
        const bool want_metrics = flag_switch(argc, argv, "metrics");
        const bool metered = !trace_path.empty() || want_metrics;

        telemetry::metric_registry registry;
        if (metered) {
            registry.set_process_name("coordinator");
            registry.attach();
            telemetry::set_thread_name("coordinator-main");
        }

        shard::supervisor_options options;
        options.shards = static_cast<std::size_t>(flag_u64(argc, argv, "shards", 4));
        options.max_processes =
            static_cast<std::size_t>(flag_u64(argc, argv, "workers", 0));
        options.straggler_timeout_seconds = flag_double(argc, argv, "timeout-s", 0.0);
        options.max_attempts =
            static_cast<std::size_t>(flag_u64(argc, argv, "retries", 3));
        options.flush_interval =
            static_cast<std::size_t>(flag_u64(argc, argv, "flush-interval", 32));

        options.shard_dir = flag_text(argc, argv, "shard-dir");
        if (options.shard_dir.empty()) {
            options.shard_dir = out_path + ".shards";
        }

        std::string worker = flag_text(argc, argv, "worker");
        if (worker.empty()) {
            // Default: the shard_worker binary built next to this one.
            worker = (std::filesystem::path(argv[0]).parent_path() / "shard_worker")
                         .string();
        }
        options.worker_command = {worker};
        options.telemetry_sidecars = metered;
        options.on_event = [](const std::string& line) {
            std::printf("  %s\n", line.c_str());
        };

        std::printf("=== shard coordinator: %s lot, %llu units, %zu shards ===\n",
                    shard::workload_name(manifest.workload),
                    static_cast<unsigned long long>(manifest.total_units()),
                    options.shards);

        const shard::coordinator_report report =
            shard::run_lot(manifest, out_path, options);

        std::printf("merged %llu records (%llu seen, %llu duplicates dropped, "
                    "%zu torn files) from %zu attempts (%zu retries) -> %s "
                    "(%llu bytes)\n",
                    static_cast<unsigned long long>(report.merge.records_merged),
                    static_cast<unsigned long long>(report.merge.records_seen),
                    static_cast<unsigned long long>(report.merge.duplicates_dropped),
                    report.merge.torn_files, report.shards.attempts.size(),
                    report.shards.retries, out_path.c_str(),
                    static_cast<unsigned long long>(report.merge.bytes_written));

        if (metered) {
            registry.detach();
            // Coordinator lane first, then one lane per worker snapshot.
            std::vector<telemetry::telemetry_snapshot> lanes;
            lanes.push_back(registry.snapshot());
            for (auto& snapshot : report.worker_snapshots) {
                lanes.push_back(snapshot);
            }
            if (!trace_path.empty()) {
                telemetry::write_chrome_trace_file(trace_path, lanes);
                std::printf("trace: %s (%zu process lanes)\n",
                            trace_path.c_str(), lanes.size());
            }
            if (want_metrics) {
                std::printf("--- fleet metrics (%zu workers) ---\n",
                            report.worker_snapshots.size());
                telemetry::print_metrics(std::cout,
                                         telemetry::merge_metrics(lanes));
            }
        }
        return 0;
    } catch (const std::exception& error) {
        std::fprintf(stderr, "shard coordinator: %s\n", error.what());
        return 1;
    }
}
