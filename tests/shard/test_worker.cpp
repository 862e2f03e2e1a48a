// Shard worker (in-process): splitting a lot across shard ranges and
// merging the shard stores must reproduce the single-process store BYTE
// FOR BYTE -- the tentpole contract, checked here at shard counts
// {1, 2, 4, 7} for the screening workload and across a severity-grid
// dictionary build, without any process spawning.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "shard/manifest.hpp"
#include "shard/merger.hpp"
#include "shard/plan.hpp"
#include "shard/worker.hpp"
#include "store/lot_store.hpp"
#include "store/records.hpp"

namespace {

using namespace bistna;

class temp_dir {
public:
    explicit temp_dir(const char* name) : path_(std::string("/tmp/") + name) {
        std::filesystem::remove_all(path_);
        std::filesystem::create_directories(path_);
    }
    ~temp_dir() { std::filesystem::remove_all(path_); }
    std::string file(const std::string& name) const { return path_ + "/" + name; }

private:
    std::string path_;
};

/// Short-acquisition settings: enough periods for stable measurements,
/// small enough that a multi-shard sweep stays test-sized.
shard::lot_manifest fast_manifest() {
    shard::lot_manifest manifest;
    manifest.periods = 20;
    manifest.settle_periods = 4;
    manifest.distortion_periods = 40;
    manifest.calibration_periods = 256;
    manifest.dice = 10;
    manifest.first_seed = 1;
    manifest.threads = 1;
    manifest.batch_lanes = 4;
    return manifest;
}

std::string read_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

/// Run the lot sharded `shards` ways, merge, and return the merged bytes.
std::string sharded_bytes(const temp_dir& dir, const shard::lot_manifest& manifest,
                          std::size_t shards, std::size_t flush_interval) {
    std::vector<std::string> files;
    for (const auto& range : shard::plan_shards(manifest.total_units(), shards)) {
        shard::worker_shard_options options;
        options.first_unit = range.first;
        options.units = range.units;
        options.flush_interval = flush_interval;
        const std::string path =
            dir.file('s' + std::to_string(shards) + "-" + std::to_string(range.index));
        const auto report = shard::run_worker_shard(manifest, path, options);
        EXPECT_EQ(report.records, range.units);
        files.push_back(path);
    }
    const std::string merged = dir.file("merged-" + std::to_string(shards));
    const auto stats =
        shard::merge_shard_stores(files, merged, manifest.record_id(0),
                                  manifest.total_units());
    EXPECT_EQ(stats.records_merged, manifest.total_units());
    EXPECT_EQ(stats.duplicates_dropped, 0u);
    return read_bytes(merged);
}

TEST(ShardWorker, ScreeningLotBitIdenticalAtAnyShardCount) {
    temp_dir dir("bistna_worker_screening");
    const auto manifest = fast_manifest();

    // The single-process oracle: one worker, the whole lot.
    shard::worker_shard_options whole;
    whole.units = manifest.total_units();
    shard::run_worker_shard(manifest, dir.file("oracle"), whole);
    const std::string oracle = read_bytes(dir.file("oracle"));
    ASSERT_FALSE(oracle.empty());

    // Every shard count -- even 7 ways across 10 dice -- and every flush
    // cadence must reproduce the oracle byte for byte.
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                     std::size_t{7}}) {
        EXPECT_EQ(sharded_bytes(dir, manifest, shards, shards % 2 == 0 ? 3 : 1),
                  oracle)
            << "merged store diverged at " << shards << " shards";
    }
}

TEST(ShardWorker, DictionaryBuildBitIdenticalAcrossShards) {
    temp_dir dir("bistna_worker_dictionary");
    auto manifest = fast_manifest();
    manifest.workload = shard::workload_kind::dictionary;
    manifest.grid_points = 2;
    manifest.thd_max_harmonic = 0;

    shard::worker_shard_options whole;
    whole.units = manifest.total_units();
    shard::run_worker_shard(manifest, dir.file("oracle"), whole);
    const std::string oracle = read_bytes(dir.file("oracle"));

    EXPECT_EQ(sharded_bytes(dir, manifest, 3, 8), oracle)
        << "sharded severity-grid build diverged from the single-process build";
}

TEST(ShardWorker, EmptyShardWritesAValidEmptyStore) {
    temp_dir dir("bistna_worker_empty");
    const auto manifest = fast_manifest();
    shard::worker_shard_options options;
    options.first_unit = manifest.total_units(); // an empty trailing shard
    options.units = 0;
    const auto report =
        shard::run_worker_shard(manifest, dir.file("empty"), options);
    EXPECT_EQ(report.records, 0u);
    EXPECT_TRUE(store::lot_store::scan(dir.file("empty")).empty());
}

TEST(ShardWorker, ShardRangeBeyondTheLotThrows) {
    temp_dir dir("bistna_worker_range");
    const auto manifest = fast_manifest();
    shard::worker_shard_options options;
    options.first_unit = manifest.total_units() - 1;
    options.units = 2;
    EXPECT_THROW((void)shard::run_worker_shard(manifest, dir.file("bad"), options),
                 precondition_error);
}

TEST(ShardWorker, StoredRecordsCarryGlobalDieSeeds) {
    temp_dir dir("bistna_worker_ids");
    auto manifest = fast_manifest();
    manifest.dice = 4;
    manifest.first_seed = 100;
    shard::worker_shard_options options;
    options.first_unit = 2;
    options.units = 2;
    shard::run_worker_shard(manifest, dir.file("tail"), options);
    const auto records = store::lot_store::scan(dir.file("tail"));
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(store::report_from_record(records[0]).die, 102u);
    EXPECT_EQ(store::report_from_record(records[1]).die, 103u);
}

TEST(ShardWorker, MalformedIntegerFlagFailsTheWorker) {
    // Each value is rejected whole: no prefix is read as a number, no
    // negative wraps, and a bad --shard is an error event, not a crash.
    temp_dir dir("bistna_worker_flags");
    auto manifest = fast_manifest();
    manifest.dice = 2;
    manifest.batch_lanes = 2;
    manifest.save(dir.file("lot.json"));
    const std::string out = dir.file("shard.store");
    for (const char* bad : {"--first=x", "--first=2x", "--count=-1", "--shard=one"}) {
        std::vector<std::string> args = {"shard_worker", "--manifest=" + dir.file("lot.json"),
                                         "--out=" + out, bad};
        std::vector<char*> argv;
        for (std::string& arg : args) {
            argv.push_back(arg.data());
        }
        EXPECT_EQ(shard::worker_main(static_cast<int>(argv.size()), argv.data()), 1) << bad;
        EXPECT_FALSE(std::filesystem::exists(out)) << bad << " wrote a store";
        std::filesystem::remove(out);
    }
}

} // namespace
