// End-to-end: the screening service against the offline store path.
//
// One in-process bistna_serverd, several concurrent svc::client sessions
// with mixed workloads (screening + dictionary), each writing its
// streamed records to a lot store file -- which must match the file the
// single-process offline worker writes for the same manifest BYTE FOR
// BYTE.  Plus the two ways a session ends early: a client that vanishes
// mid-job (disconnect-cancel frees the pool) and an induced overload
// (typed shed, the surviving sessions' bytes still identical), and a
// repeated request that restores the daemon's shared calibrations.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "shard/manifest.hpp"
#include "shard/worker.hpp"
#include "store/lot_store.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/snapshot.hpp"

namespace {

using namespace bistna;
using namespace std::chrono_literals;
using svc::client;
using svc::server_options;
using svc::service_server;

class temp_dir {
public:
    explicit temp_dir(const char* name)
        : path_(std::string("/tmp/") + name + "_" + std::to_string(::getpid())) {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~temp_dir() { std::filesystem::remove_all(path_); }
    std::string file(const std::string& name) const { return path_ + "/" + name; }

private:
    std::string path_;
};

std::string read_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

/// Poll `predicate` until it holds or `deadline` elapses.
template <typename Fn> bool eventually(Fn predicate, std::chrono::milliseconds deadline) {
    const auto until = std::chrono::steady_clock::now() + deadline;
    while (std::chrono::steady_clock::now() < until) {
        if (predicate()) {
            return true;
        }
        std::this_thread::sleep_for(2ms);
    }
    return predicate();
}

/// Samples recorded so far in one of the registry's histograms.
std::uint64_t samples(const telemetry::metric_registry& registry, const char* name) {
    const auto snapshot = registry.snapshot();
    const auto* histogram = snapshot.find_histogram(name);
    return histogram == nullptr ? 0 : histogram->count;
}

shard::lot_manifest fast_screening(std::uint64_t dice, std::uint64_t first_seed) {
    shard::lot_manifest manifest;
    manifest.periods = 20;
    manifest.settle_periods = 4;
    manifest.distortion_periods = 40;
    manifest.calibration_periods = 256;
    manifest.dice = dice;
    manifest.first_seed = first_seed;
    manifest.threads = 1;
    manifest.batch_lanes = 4;
    return manifest;
}

shard::lot_manifest fast_dictionary() {
    auto manifest = fast_screening(0, 1);
    manifest.workload = shard::workload_kind::dictionary;
    manifest.grid_points = 2;
    return manifest;
}

/// The single-process offline reference: run the whole lot through the
/// shard worker and return the store file's raw bytes.
std::string offline_store_bytes(const temp_dir& dir, const shard::lot_manifest& manifest,
                                const std::string& name) {
    const std::string path = dir.file(name);
    shard::worker_shard_options options;
    options.first_unit = 0;
    options.units = manifest.total_units();
    run_worker_shard(manifest, path, options);
    return read_bytes(path);
}

/// Append `records` to a fresh store file and return its raw bytes.
std::string store_bytes(const temp_dir& dir, const std::vector<store::record>& records,
                        const std::string& name) {
    const std::string path = dir.file(name);
    auto out = store::lot_store::open_append(path);
    for (const auto& r : records) {
        out.append(r);
    }
    out.flush();
    return read_bytes(path);
}

/// One service session: submit, stream, append every record to a fresh
/// store file, return its raw bytes.
std::string service_store_bytes(const std::string& endpoint, const temp_dir& dir,
                                const shard::lot_manifest& manifest,
                                const std::string& name) {
    client c(endpoint);
    return store_bytes(dir, c.run(manifest), name);
}

TEST(ServiceEndToEnd, ConcurrentMixedSessionsMatchTheOfflineStoreByteForByte) {
    temp_dir dir("bistna_svc_e2e");
    const std::string socket = dir.file("serverd.sock");

    server_options options;
    options.listen_path = socket;
    options.worker_threads = 3;
    options.max_active_jobs = 4;
    telemetry::metric_registry registry;
    telemetry::registry_scope metering(registry);
    service_server server(std::move(options));
    server.start();

    // Three concurrent sessions, mixed workloads, all on one shared pool.
    const std::vector<shard::lot_manifest> lots = {
        fast_screening(8, 100),
        fast_screening(5, 4242),
        fast_dictionary(),
    };
    std::vector<std::future<std::string>> streamed;
    for (std::size_t i = 0; i < lots.size(); ++i) {
        streamed.push_back(std::async(std::launch::async, [&, i] {
            return service_store_bytes(socket, dir, lots[i],
                                       "svc_" + std::to_string(i) + ".store");
        }));
    }
    for (std::size_t i = 0; i < lots.size(); ++i) {
        const std::string via_service = streamed[i].get();
        const std::string offline =
            offline_store_bytes(dir, lots[i], "off_" + std::to_string(i) + ".store");
        ASSERT_FALSE(via_service.empty());
        EXPECT_EQ(via_service, offline)
            << "lot " << i << ": service stream diverged from the offline store";
    }

    server.stop();
    const auto snapshot = registry.snapshot();
    EXPECT_EQ(snapshot.counter("svc.jobs.completed"), 3u);
    EXPECT_EQ(snapshot.counter("svc.jobs.failed"), 0u);
    EXPECT_EQ(snapshot.counter("svc.sessions.shed"), 0u);
}

// The daemon keeps one calibration share for its lifetime: a repeated
// cmos035 request restores every lane's calibration from the first one, a
// request with another evaluator seed (part of a noisy key) calibrates
// again, and all three stream their offline bytes.
TEST(ServiceEndToEnd, RepeatedRequestRestoresTheDaemonsCalibrations) {
    temp_dir dir("bistna_svc_share");
    const std::string socket = dir.file("serverd.sock");
    auto lot = fast_screening(8, 300);
    lot.ideal_modulator = false;
    auto reseeded = lot;
    reseeded.evaluator_seed = 43;
    const std::string offline = offline_store_bytes(dir, lot, "off.store");
    const std::string offline_reseeded = offline_store_bytes(dir, reseeded, "off_43.store");

    server_options options;
    options.listen_path = socket;
    options.worker_threads = 2;
    service_server server(std::move(options));
    server.start();

    struct calibrations {
        std::uint64_t runs = 0;
        std::uint64_t restores = 0;
    };
    telemetry::metric_registry registry;
    const auto counted = [&registry] {
        const auto snapshot = registry.snapshot();
        return calibrations{snapshot.counter("eval.calibration.runs"),
                            snapshot.counter("eval.calibration.restores")};
    };
    std::vector<std::vector<store::record>> streamed;
    std::vector<calibrations> after;
    {
        telemetry::registry_scope scope(registry);
        client c(socket);
        for (const auto* manifest : {&lot, &lot, &reseeded}) {
            streamed.push_back(c.run(*manifest));
            after.push_back(counted());
        }
    }
    server.stop();

    EXPECT_GT(after[0].runs, 0u);
    EXPECT_EQ(after[0].runs + after[0].restores, lot.dice) << "one calibration per die lane";
    EXPECT_EQ(after[1].runs, after[0].runs) << "the repeated request calibrated";
    EXPECT_EQ(after[1].restores - after[0].restores, lot.dice);
    EXPECT_GT(after[2].runs, after[1].runs) << "no seed-43 snapshot existed";
    EXPECT_EQ(after[2].runs - after[1].runs + after[2].restores - after[1].restores, lot.dice);

    EXPECT_EQ(store_bytes(dir, streamed[0], "svc_0.store"), offline);
    EXPECT_EQ(store_bytes(dir, streamed[1], "svc_1.store"), offline);
    EXPECT_EQ(store_bytes(dir, streamed[2], "svc_2.store"), offline_reseeded);
    EXPECT_NE(offline, offline_reseeded);
}

TEST(ServiceEndToEnd, DisconnectAndOverloadLeaveSurvivorsBitIdentical) {
    temp_dir dir("bistna_svc_chaos");
    const std::string socket = dir.file("serverd.sock");
    // Declared before the server: on an early ASSERT exit the server stops
    // first, so the survivor's session ends instead of waiting forever.
    std::future<std::string> survivor;

    server_options options;
    options.listen_path = socket;
    options.worker_threads = 2;
    options.max_active_jobs = 1;    // one job runs at a time
    options.admission_capacity = 2; // two may wait
    // A request keeps its slot until its last result is queued: with a
    // tiny send queue and socket buffer, and no stall shedding, a client
    // that stops reading holds the slot however fast the pool runs.
    options.send_queue_limit = 1024;
    options.socket_send_buffer = 4096;
    options.stall_timeout_ms = 0;
    telemetry::metric_registry registry;
    telemetry::registry_scope metering(registry);
    service_server server(std::move(options));
    server.start();

    // A hog reads nothing past its admission, so its job keeps the active
    // slot (its client vanishes below, so this stays fast)...
    auto hog = std::make_unique<client>(socket);
    hog->submit(1, fast_screening(5000, 7000));
    ASSERT_TRUE(hog->next_event().has_value()); // admitted

    // ...a well-behaved session queues behind it (one admission-depth
    // sample per queued submit, the hog's first)...
    survivor = std::async(std::launch::async, [&] {
        return service_store_bytes(socket, dir, fast_screening(6, 123),
                                   "survivor.store");
    });
    ASSERT_TRUE(
        eventually([&] { return samples(registry, "svc.admission.depth") == 2; }, 8000ms));

    // ...a third queues too, then the admission queue is full: the next
    // submit is shed with the typed overloaded error.
    client queued(socket);
    queued.submit(1, fast_dictionary());
    ASSERT_TRUE(
        eventually([&] { return samples(registry, "svc.admission.depth") == 3; }, 8000ms));

    client shed(socket);
    shed.submit(1, fast_screening(2, 1));
    try {
        (void)shed.collect(1);
        FAIL() << "expected overloaded";
    } catch (const svc::service_error& e) {
        EXPECT_EQ(e.code(), svc::error_code::overloaded);
    }

    // The hog vanishes mid-job: disconnect-cancel must free the slot.
    hog.reset();

    // Both queued jobs now run to completion, bit-identical to offline.
    const std::string survivor_bytes = survivor.get();
    EXPECT_EQ(survivor_bytes,
              offline_store_bytes(dir, fast_screening(6, 123), "survivor_off.store"));

    const auto dict_records = queued.collect(1);
    const auto dict = fast_dictionary();
    EXPECT_EQ(dict_records.size(), dict.total_units());
    {
        const std::string path = dir.file("dict.store");
        auto out = store::lot_store::open_append(path);
        for (const auto& r : dict_records) {
            out.append(r);
        }
        out.flush();
        EXPECT_EQ(read_bytes(path),
                  offline_store_bytes(dir, dict, "dict_off.store"));
    }

    server.stop();
    const auto snapshot = registry.snapshot();
    EXPECT_GE(snapshot.counter("svc.jobs.cancelled"), 1u); // the hog's job
    EXPECT_GE(snapshot.counter("svc.jobs.rejected"), 1u);  // the shed submit
    EXPECT_EQ(snapshot.counter("svc.jobs.failed"), 0u);
}

} // namespace
