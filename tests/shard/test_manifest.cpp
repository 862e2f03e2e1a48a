// Lot manifest: the JSON contract every worker process loads.  Round
// trips must be exact (a retried worker re-reading the manifest must run
// the identical lot) and parsing must be strict (a typo in a hand-written
// manifest fails loudly, never silently runs the defaults).
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/error.hpp"
#include "diag/fault_model.hpp"
#include "shard/manifest.hpp"

namespace {

using namespace bistna;

class temp_file {
public:
    explicit temp_file(const char* name) : path_(std::string("/tmp/") + name) {
        std::remove(path_.c_str());
    }
    ~temp_file() { std::remove(path_.c_str()); }
    const std::string& path() const { return path_; }

private:
    std::string path_;
};

TEST(ShardManifest, DefaultsRoundTripThroughJson) {
    const shard::lot_manifest manifest;
    const std::string json = manifest.to_json();
    const shard::lot_manifest parsed = shard::lot_manifest::from_json(json);
    // to_json is deterministic, so string equality is full field equality.
    EXPECT_EQ(parsed.to_json(), json);
    EXPECT_EQ(parsed.workload, shard::workload_kind::screening);
    EXPECT_EQ(parsed.dice, manifest.dice);
    EXPECT_EQ(parsed.first_seed, manifest.first_seed);
}

TEST(ShardManifest, NonDefaultFieldsRoundTrip) {
    shard::lot_manifest manifest;
    manifest.workload = shard::workload_kind::dictionary;
    manifest.sigma = 0.05;
    manifest.amplitude_mv = 120.5;
    manifest.ideal_generator = false;
    manifest.ideal_modulator = false;
    manifest.offset = eval::offset_mode::chopped;
    manifest.evaluator_seed = 99;
    manifest.periods = 64;
    manifest.settle_periods = 8;
    manifest.calibration_periods = 512;
    manifest.custom_limits.push_back(
        core::gain_limit{1000.0, -2.25, 0.5, "pass band"});
    manifest.stimulus_volts_nominal = 0.31;
    manifest.stimulus_tolerance = 0.07;
    manifest.measure_distortion = true;
    manifest.continue_after_self_test_failure = true;
    manifest.dice = 4096;
    manifest.first_seed = 1000;
    manifest.grid_points = 5;
    manifest.thd_max_harmonic = 4;
    manifest.nominal_seed = 3;
    manifest.eval_seed_base = 0xABCDEF;
    manifest.threads = 2;
    manifest.batch_lanes = 16;

    const shard::lot_manifest parsed =
        shard::lot_manifest::from_json(manifest.to_json());
    EXPECT_EQ(parsed.to_json(), manifest.to_json());
    EXPECT_EQ(parsed.workload, shard::workload_kind::dictionary);
    ASSERT_EQ(parsed.custom_limits.size(), 1u);
    EXPECT_EQ(parsed.custom_limits[0].name, "pass band");
    EXPECT_EQ(parsed.custom_limits[0].gain_db_min, -2.25);
    ASSERT_TRUE(parsed.stimulus_tolerance.has_value());
    EXPECT_EQ(*parsed.stimulus_tolerance, 0.07);
    EXPECT_EQ(parsed.batch_lanes, 16u);
}

TEST(ShardManifest, SaveLoadRoundTrip) {
    temp_file file("bistna_manifest_roundtrip.json");
    shard::lot_manifest manifest;
    manifest.dice = 123;
    manifest.first_seed = 7;
    manifest.save(file.path());
    const shard::lot_manifest loaded = shard::lot_manifest::load(file.path());
    EXPECT_EQ(loaded.to_json(), manifest.to_json());
}

TEST(ShardManifest, RejectsMalformedJson) {
    EXPECT_THROW((void)shard::lot_manifest::from_json(""), configuration_error);
    EXPECT_THROW((void)shard::lot_manifest::from_json("{"), configuration_error);
    EXPECT_THROW((void)shard::lot_manifest::from_json("{} trailing"),
                 configuration_error);
    EXPECT_THROW((void)shard::lot_manifest::from_json("{\"dice\": }"),
                 configuration_error);
    EXPECT_THROW((void)shard::lot_manifest::from_json("{\"dice\": \"many\"}"),
                 configuration_error);
    EXPECT_THROW((void)shard::lot_manifest::from_json("{\"dice\": -3}"),
                 configuration_error);
    EXPECT_THROW((void)shard::lot_manifest::from_json("{\"dice\": 1.5}"),
                 configuration_error);
    // Integers must be exact: 2^53 and above are refused, not rounded (a
    // daemon would otherwise screen a die the client did not ask for).
    EXPECT_THROW(
        (void)shard::lot_manifest::from_json("{\"first_seed\": 9007199254740992}"),
        configuration_error);
    EXPECT_THROW(
        (void)shard::lot_manifest::from_json("{\"first_seed\": 9007199254740993}"),
        configuration_error);
    // Spellings outside the RFC 8259 number grammar.
    for (const char* number : {"+1", "01", ".5", "5.", "1.e5"}) {
        EXPECT_THROW((void)shard::lot_manifest::from_json(
                         std::string("{\"sigma\": ") + number + "}"),
                     configuration_error)
            << number;
    }
    // The largest exact integer still round-trips.
    const auto largest =
        shard::lot_manifest::from_json("{\"first_seed\": 9007199254740991}");
    EXPECT_EQ(largest.first_seed, 9007199254740991u);
    EXPECT_EQ(shard::lot_manifest::from_json(largest.to_json()).first_seed,
              9007199254740991u);
}

TEST(ShardManifest, RejectsUnknownAndDuplicateKeys) {
    EXPECT_THROW((void)shard::lot_manifest::from_json("{\"dyce\": 8}"),
                 configuration_error);
    EXPECT_THROW(
        (void)shard::lot_manifest::from_json("{\"engine\": {\"cores\": 4}}"),
        configuration_error);
    // One executor runs every lot: the old pipeline selector is unknown.
    EXPECT_THROW((void)shard::lot_manifest::from_json(
                     "{\"engine\": {\"pipeline\": \"lane_major\"}}"),
                 configuration_error);
    EXPECT_THROW((void)shard::lot_manifest::from_json("{\"dice\": 8, \"dice\": 9}"),
                 configuration_error);
    EXPECT_THROW((void)shard::lot_manifest::from_json("{\"workload\": \"sharding\"}"),
                 configuration_error);
}

TEST(ShardManifest, UnitAndRecordIdAccounting) {
    shard::lot_manifest screening;
    screening.dice = 100;
    screening.first_seed = 17;
    EXPECT_EQ(screening.total_units(), 100u);
    EXPECT_EQ(screening.record_id(0), 17u);
    EXPECT_EQ(screening.record_id(99), 116u);

    shard::lot_manifest dictionary;
    dictionary.workload = shard::workload_kind::dictionary;
    dictionary.grid_points = 3;
    // 1 healthy reference + one item per (catalog fault, grid point).
    EXPECT_EQ(dictionary.total_units(), 1 + diag::default_catalog().size() * 3);
    EXPECT_EQ(dictionary.record_id(0), 0u);
    EXPECT_EQ(dictionary.record_id(7), 7u);
}

TEST(ShardManifest, MissingManifestFileThrows) {
    EXPECT_THROW((void)shard::lot_manifest::load("/nonexistent/lot.json"),
                 configuration_error);
}

} // namespace
