// The metric names the bench ledger (lotbench) reads from a registry
// snapshot.  The registry is the only place the engine, the store, the
// shard fleet and the daemon count and time their work, so these names
// are an interface: lotbench reads a missing counter, histogram or span as
// 0 and carries on, so a renamed metric would only show as a silent zero
// in the ledger.  One in-process run of each path, with a registry
// attached, must record every one of them.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>

#include <unistd.h>

#include "shard/manifest.hpp"
#include "shard/merger.hpp"
#include "shard/unit_stream.hpp"
#include "shard/worker.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/snapshot.hpp"

namespace {

using namespace bistna;

/// Eight dice in two lane groups of four, with THD: the ideal generator
/// gives every die the same staircase, so the second group hits the
/// stimulus cache.
shard::lot_manifest small_lot() {
    shard::lot_manifest manifest;
    manifest.periods = 20;
    manifest.settle_periods = 4;
    manifest.distortion_periods = 40;
    manifest.calibration_periods = 256;
    manifest.measure_distortion = true;
    manifest.dice = 8;
    manifest.threads = 1;
    manifest.batch_lanes = 4;
    return manifest;
}

double longest_span_ns(const telemetry::telemetry_snapshot& snapshot, const char* name) {
    double longest = 0.0;
    for (const auto& span : snapshot.spans) {
        if (span.name == name) {
            longest = std::max(longest, static_cast<double>(span.duration_ns));
        }
    }
    return longest;
}

TEST(TelemetryLedgerNames, EveryNameTheLedgerReadsIsRecorded) {
    const std::string dir = "/tmp/bistna_ledger_names_" + std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const auto manifest = small_lot();

    telemetry::metric_registry registry;
    {
        telemetry::registry_scope metering(registry);

        // The engine path: one screening lot through the unit stream.
        shard::unit_stream stream(manifest, 0, manifest.total_units());
        std::uint64_t units = 0;
        while (stream.next()) {
            ++units;
        }
        ASSERT_EQ(units, manifest.total_units());

        // The daemon path: one request.
        svc::server_options options;
        options.listen_path = dir + "/serverd.sock";
        options.worker_threads = 1;
        svc::service_server server(options);
        server.start();
        {
            svc::client session(options.listen_path);
            EXPECT_EQ(session.run(manifest).size(), manifest.total_units());
        }
        server.stop();

        // The fleet path: one worker shard, then the merge of its store.
        shard::worker_shard_options shard_options;
        shard_options.units = manifest.total_units();
        shard::run_worker_shard(manifest, dir + "/shard.store", shard_options);
        const auto merged = shard::merge_shard_stores({dir + "/shard.store"},
                                                      dir + "/lot.store", manifest.record_id(0),
                                                      manifest.total_units());
        EXPECT_EQ(merged.records_merged, manifest.total_units());
    }
    std::filesystem::remove_all(dir);

    const auto snapshot = registry.snapshot();
    for (const char* name : {"engine.stimulus.hits", "engine.stimulus.misses"}) {
        EXPECT_GT(snapshot.counter(name), 0u) << "counter " << name;
    }
    for (const char* name : {"job_queue.task.wait_ns", "job_queue.task.run_ns", "store.flush_ns",
                             "svc.admission.wait_ns", "svc.request.latency_ns"}) {
        const auto* histogram = snapshot.find_histogram(name);
        ASSERT_NE(histogram, nullptr) << "histogram " << name;
        EXPECT_GT(histogram->count, 0u) << "histogram " << name;
        EXPECT_GT(histogram->sum, 0u) << "histogram " << name;
    }
    for (const char* name : {"engine.render", "engine.calibrate", "engine.evaluate", "engine.thd",
                             "eval.modulate", "shard.stream"}) {
        EXPECT_GT(longest_span_ns(snapshot, name), 0.0) << "span " << name;
    }
}

} // namespace
