// Shard supervisor: real process fleets.  The worker processes here are
// THIS test binary re-executed with the --bistna-shard-worker dispatch
// flag (see tests/main.cpp), so the suite is self-contained -- it needs no
// example binaries and runs identically under the sanitizer CI builds.
// Fault injection (--kill-after-records, --stall-ms) manufactures dead and
// straggler workers on demand; the contract is that the fleet still
// converges and the merged store is byte-identical to the single-process
// one.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "shard/manifest.hpp"
#include "shard/merger.hpp"
#include "shard/supervisor.hpp"
#include "shard/worker.hpp"

namespace {

using namespace bistna;

class temp_dir {
public:
    explicit temp_dir(const char* name) : path_(std::string("/tmp/") + name) {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~temp_dir() { std::filesystem::remove_all(path_); }
    const std::string& path() const { return path_; }
    std::string file(const std::string& name) const { return path_ + "/" + name; }

private:
    std::string path_;
};

shard::lot_manifest fast_manifest(std::uint64_t dice) {
    shard::lot_manifest manifest;
    manifest.periods = 20;
    manifest.settle_periods = 4;
    manifest.distortion_periods = 40;
    manifest.calibration_periods = 256;
    manifest.dice = dice;
    manifest.first_seed = 1;
    manifest.threads = 1;
    manifest.batch_lanes = 4;
    return manifest;
}

/// This test binary doubles as the worker process (tests/main.cpp).
std::vector<std::string> self_worker_command() {
    return {"/proc/self/exe", "--bistna-shard-worker=1"};
}

std::string read_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

std::string single_process_bytes(const temp_dir& dir,
                                 const shard::lot_manifest& manifest) {
    shard::worker_shard_options whole;
    whole.units = manifest.total_units();
    shard::run_worker_shard(manifest, dir.file("oracle"), whole);
    return read_bytes(dir.file("oracle"));
}

TEST(ShardSupervisor, FleetMergesByteIdenticalToSingleProcess) {
    temp_dir dir("bistna_supervisor_clean");
    const auto manifest = fast_manifest(6);

    shard::supervisor_options options;
    options.worker_command = self_worker_command();
    options.shards = 3;
    options.max_processes = 2; // fewer workers than shards: queued shards wait
    options.shard_dir = dir.file("shards");
    const auto result = shard::run_shards(manifest, options);

    EXPECT_EQ(result.plan.size(), 3u);
    EXPECT_EQ(result.attempts.size(), 3u);
    EXPECT_EQ(result.retries, 0u);
    for (const auto& attempt : result.attempts) {
        EXPECT_TRUE(attempt.succeeded);
    }

    const auto stats = shard::merge_shard_stores(
        result.shard_files, dir.file("merged"), manifest.record_id(0),
        manifest.total_units());
    EXPECT_EQ(stats.records_merged, manifest.total_units());
    EXPECT_EQ(read_bytes(dir.file("merged")), single_process_bytes(dir, manifest));
}

TEST(ShardSupervisor, KilledWorkersAreRetriedAndMergeStaysIdentical) {
    temp_dir dir("bistna_supervisor_kill");
    const auto manifest = fast_manifest(6);

    shard::supervisor_options options;
    options.worker_command = self_worker_command();
    options.shards = 2;
    options.max_attempts = 2;
    options.shard_dir = dir.file("shards");
    // Attempt 1 of every shard dies by SIGKILL mid-write after one record;
    // attempt 2 (no longer matching --kill-attempt) completes.
    options.extra_worker_args = {"--kill-after-records=1", "--kill-attempt=1"};
    const auto result = shard::run_shards(manifest, options);

    EXPECT_EQ(result.retries, 2u);
    EXPECT_EQ(result.attempts.size(), 4u);

    // The merge sees every attempt file: the torn partials of the killed
    // attempts AND the complete retries.  Dedupe + tail recovery must make
    // that indistinguishable from a clean single-process run.
    const auto stats = shard::merge_shard_stores(
        result.shard_files, dir.file("merged"), manifest.record_id(0),
        manifest.total_units());
    EXPECT_EQ(stats.torn_files, 2u);
    EXPECT_EQ(stats.duplicates_dropped, 2u);
    EXPECT_EQ(stats.records_merged, manifest.total_units());
    EXPECT_EQ(read_bytes(dir.file("merged")), single_process_bytes(dir, manifest));
}

TEST(ShardSupervisor, StragglerIsKilledAndRetried) {
    temp_dir dir("bistna_supervisor_straggler");
    const auto manifest = fast_manifest(2);

    shard::supervisor_options options;
    options.worker_command = self_worker_command();
    options.shards = 2;
    options.max_attempts = 2;
    // The timeout must separate a hung attempt from a healthy one on any
    // host.  A healthy 1-die attempt took 0.14 s in an ASan build on a
    // 4-vCPU Xeon, and 0.24 s with the whole ASan suite running at
    // ctest -j8 beside it; 3 s leaves it more than 10x headroom.
    options.straggler_timeout_seconds = 3.0;
    options.shard_dir = dir.file("shards");
    // Attempt 1 of every shard hangs far past the timeout; the supervisor
    // must SIGKILL it and let attempt 2 (which does not stall) finish.
    options.extra_worker_args = {"--stall-ms=30000", "--stall-attempt=1"};
    const auto result = shard::run_shards(manifest, options);

    EXPECT_EQ(result.retries, 2u);
    std::size_t timed_out = 0;
    for (const auto& attempt : result.attempts) {
        timed_out += attempt.timed_out ? 1 : 0;
    }
    EXPECT_EQ(timed_out, 2u);

    const auto stats = shard::merge_shard_stores(
        result.shard_files, dir.file("merged"), manifest.record_id(0),
        manifest.total_units());
    EXPECT_EQ(stats.records_merged, manifest.total_units());
    EXPECT_EQ(read_bytes(dir.file("merged")), single_process_bytes(dir, manifest));
}

TEST(ShardSupervisor, ShardExhaustingItsAttemptsFailsTheRun) {
    temp_dir dir("bistna_supervisor_exhausted");
    const auto manifest = fast_manifest(2);

    shard::supervisor_options options;
    // The worker command pins a nonexistent manifest BEFORE the
    // supervisor's own --manifest flag (first match wins in the worker's
    // flag parser), so every attempt exits nonzero.
    options.worker_command = self_worker_command();
    options.worker_command.push_back("--manifest=/nonexistent/lot.json");
    options.shards = 1;
    options.max_attempts = 2;
    options.shard_dir = dir.file("shards");
    EXPECT_THROW((void)shard::run_shards(manifest, options), configuration_error);
}

TEST(ShardSupervisor, UnspawnableWorkerBinaryThrows) {
    temp_dir dir("bistna_supervisor_nospawn");
    const auto manifest = fast_manifest(2);

    shard::supervisor_options options;
    options.worker_command = {"/nonexistent/shard_worker_binary"};
    options.shards = 1;
    options.shard_dir = dir.file("shards");
    EXPECT_THROW((void)shard::run_shards(manifest, options), configuration_error);
}

TEST(ShardSupervisor, WritesManifestAndLogsIntoShardDir) {
    temp_dir dir("bistna_supervisor_artifacts");
    const auto manifest = fast_manifest(2);

    shard::supervisor_options options;
    options.worker_command = self_worker_command();
    options.shards = 2;
    options.shard_dir = dir.file("shards");
    std::vector<std::string> events;
    options.on_event = [&](const std::string& line) { events.push_back(line); };
    const auto result = shard::run_shards(manifest, options);

    // The manifest the workers actually loaded round-trips exactly.
    EXPECT_EQ(shard::lot_manifest::load(result.manifest_path).to_json(),
              manifest.to_json());
    for (const auto& attempt : result.attempts) {
        EXPECT_TRUE(std::filesystem::exists(attempt.log_path))
            << attempt.log_path;
    }
    EXPECT_FALSE(events.empty());
}

} // namespace
