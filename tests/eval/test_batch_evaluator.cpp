// Tests for the batched acquisition path: batch_acquisition over lane-major
// and broadcast records, fed whole or in pieces, calibrate_offset_batch and
// the batch_evaluator layer must be bit-identical per lane to the scalar
// acquire / calibrate_offset / sinewave_evaluator.
#include "common/error.hpp"
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "common/math_util.hpp"
#include "eval/calibration_share.hpp"
#include "eval/batch_evaluator.hpp"
#include "eval/evaluator.hpp"
#include "eval/signature.hpp"
#include "sd/modulator_bank.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/snapshot.hpp"

namespace {

using namespace bistna;
using eval::acquisition_settings;
using eval::batch_evaluator;
using eval::evaluator_config;
using eval::offset_mode;
using eval::signature_extractor;
using eval::signature_result;

/// A distinct multi-harmonic record per lane on the N = 96 grid.
std::vector<double> lane_record(std::size_t lane, std::size_t periods) {
    const std::size_t n_per_period = 96;
    std::vector<double> record(periods * n_per_period);
    const double amplitude = 0.2 + 0.04 * static_cast<double>(lane);
    const double phase = 0.3 * static_cast<double>(lane);
    for (std::size_t n = 0; n < record.size(); ++n) {
        const double angle = two_pi * static_cast<double>(n % n_per_period) / 96.0;
        record[n] = amplitude * std::sin(angle + phase) +
                    0.02 * std::sin(3.0 * angle) + 0.01;
    }
    return record;
}

/// Records as one lane-major block: lane l's sample n at [n * lanes + l].
std::vector<double> lane_major_block(const std::vector<std::vector<double>>& records) {
    const std::size_t lanes = records.size();
    std::vector<double> block(records.front().size() * lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
        for (std::size_t n = 0; n < records[l].size(); ++n) {
            block[n * lanes + l] = records[l][n];
        }
    }
    return block;
}

/// One batched acquisition of `lanes` over a whole record in one feed.
std::vector<signature_result> acquire_in_one_feed(std::span<signature_extractor* const> lanes,
                                                  const acquisition_settings& settings,
                                                  const double* record, bool shared) {
    eval::batch_acquisition acquisition(lanes, settings);
    if (shared) {
        acquisition.feed_shared(record, acquisition.remaining());
    } else {
        acquisition.feed_lane_major(record, acquisition.remaining());
    }
    return acquisition.finish();
}

void expect_identical(const signature_result& a, const signature_result& b) {
    EXPECT_EQ(a.i1, b.i1);
    EXPECT_EQ(a.i2, b.i2);
    EXPECT_EQ(a.raw_i1, b.raw_i1);
    EXPECT_EQ(a.raw_i2, b.raw_i2);
    EXPECT_EQ(a.total_samples, b.total_samples);
    EXPECT_EQ(a.harmonic_k, b.harmonic_k);
    EXPECT_EQ(a.periods, b.periods);
    EXPECT_EQ(a.eps_bound, b.eps_bound);
    EXPECT_EQ(a.vref, b.vref);
}

class AcquireBatchModes : public ::testing::TestWithParam<offset_mode> {};

// Every harmonic the N = 96 grid aligns, DC included, through the
// lane-major and the broadcast entry: each lane against a scalar twin that
// runs the same acquisitions in the same order, so the RNG positions carry
// from one k to the next.  Five noisy cmos035 lanes draw their noise in
// blocks that hold no whole number of square-wave periods (the batched
// pass repeats one period of signs, so a block starts mid-period), and the
// chop point of the 40-period record falls inside a block, where a
// chopped acquisition's second pass begins.
TEST_P(AcquireBatchModes, BitIdenticalToScalarAcquirePerLane) {
    const offset_mode mode = GetParam();
    constexpr std::size_t n_lanes = 5;
    constexpr std::size_t periods = 40;
    constexpr std::size_t n_per_period = 96;
    const std::vector<std::size_t> harmonics = {0, 1, 2, 3, 4, 6, 8, 12, 24};

    // Realistic modulators so offsets and noise streams actually matter.
    const auto params = sd::modulator_params::cmos035();
    sd::modulator_bank probe;
    for (std::size_t l = 0; l < n_lanes; ++l) {
        probe.add_lane(params);
    }
    const std::size_t block_samples = probe.noise_tile_samples();
    ASSERT_NE(periods * n_per_period / 2 % block_samples, 0u) << "a block straddles the chop";
    for (const std::size_t k : harmonics) {
        if (k != 0) {
            ASSERT_NE(block_samples % (n_per_period / k), 0u)
                << "a block starts mid-period, k " << k;
        }
    }

    std::vector<std::vector<double>> records;
    for (std::size_t l = 0; l < n_lanes; ++l) {
        records.push_back(lane_record(l, periods));
    }
    const auto block = lane_major_block(records);

    for (const bool broadcast : {false, true}) {
        std::vector<signature_extractor> batch_lanes;
        std::vector<signature_extractor> scalar_lanes;
        for (std::size_t l = 0; l < n_lanes; ++l) {
            batch_lanes.emplace_back(params, 900 + l);
            scalar_lanes.emplace_back(params, 900 + l);
        }
        std::vector<signature_extractor*> lane_ptrs;
        for (std::size_t l = 0; l < n_lanes; ++l) {
            if (mode == offset_mode::calibrated) {
                batch_lanes[l].calibrate_offset(64);
                scalar_lanes[l].calibrate_offset(64);
            }
            lane_ptrs.push_back(&batch_lanes[l]);
        }

        for (const std::size_t k : harmonics) {
            acquisition_settings settings;
            settings.harmonic_k = k;
            settings.periods = periods;
            settings.offset = mode;
            const auto batched = acquire_in_one_feed(
                lane_ptrs, settings, broadcast ? records[0].data() : block.data(), broadcast);
            ASSERT_EQ(batched.size(), n_lanes);
            for (std::size_t l = 0; l < n_lanes; ++l) {
                SCOPED_TRACE(testing::Message() << "broadcast " << broadcast << " k " << k
                                                << " lane " << l);
                const auto& record = records[broadcast ? 0 : l];
                const auto scalar = scalar_lanes[l].acquire(
                    [&record](std::size_t n) { return record[n]; }, settings);
                expect_identical(scalar, batched[l]);
            }
        }
    }
}

/// Clip events the banks of `acquire` count into a registry.
std::uint64_t counted_clips(const std::function<void()>& acquire) {
    telemetry::metric_registry registry;
    {
        telemetry::registry_scope scope(registry);
        acquire();
    }
    return registry.snapshot().counter("eval.modulator.clips");
}

// The resumable acquisition: a record fed in uneven whole-period pieces
// must give exactly what one feed and the scalar acquire give -- every
// signature, the banks' clip count, and each extractor's RNG position
// afterwards -- at every aligned k.  One piece straddles the chop point of
// the 40-period record, and the short pieces are shorter than a noise
// tile, so a tile's draws span feeds.  A tight integrator swing makes the
// records clip, so the counts compared are not all zero.
TEST_P(AcquireBatchModes, PiecewiseFeedsMatchOneFeedAndScalarAcquire) {
    const offset_mode mode = GetParam();
    constexpr std::size_t n_lanes = 5;
    constexpr std::size_t periods = 40;
    constexpr std::size_t n_per_period = 96;
    const std::vector<std::size_t> pieces = {1, 2, 5, 13, 3, 1, 15}; // periods
    const std::vector<std::size_t> harmonics = {0, 1, 2, 3, 4, 6, 8, 12, 24};

    auto params = sd::modulator_params::cmos035();
    params.integrator_swing = 0.3;
    sd::modulator_bank probe;
    for (std::size_t l = 0; l < n_lanes; ++l) {
        probe.add_lane(params);
    }
    ASSERT_LT(n_per_period, probe.noise_tile_samples()) << "a piece shorter than a tile";
    bool straddles = false;
    std::size_t end = 0;
    for (const std::size_t piece : pieces) {
        straddles = straddles || (end < periods / 2 && periods / 2 < end + piece);
        end += piece;
    }
    ASSERT_TRUE(straddles) << "a piece straddles the chop";
    ASSERT_EQ(end, periods);

    std::vector<std::vector<double>> records;
    for (std::size_t l = 0; l < n_lanes; ++l) {
        records.push_back(lane_record(l, periods));
    }
    const auto block = lane_major_block(records);

    /// Five lanes seeded 900.., calibrated when the mode needs it.
    const auto make_lanes = [&] {
        std::vector<signature_extractor> lanes;
        for (std::size_t l = 0; l < n_lanes; ++l) {
            lanes.emplace_back(params, 900 + l);
            if (mode == offset_mode::calibrated) {
                lanes.back().calibrate_offset(64);
            }
        }
        return lanes;
    };
    const auto pointers = [](std::vector<signature_extractor>& lanes) {
        std::vector<signature_extractor*> out;
        for (auto& lane : lanes) {
            out.push_back(&lane);
        }
        return out;
    };
    auto pieced_lanes = make_lanes();
    auto whole_lanes = make_lanes();
    auto scalar_lanes = make_lanes();
    std::uint64_t clips = 0;
    for (const std::size_t k : harmonics) {
        SCOPED_TRACE(testing::Message() << "k " << k);
        acquisition_settings settings;
        settings.harmonic_k = k;
        settings.periods = periods;
        settings.offset = mode;

        std::vector<signature_result> pieced;
        const std::uint64_t pieced_clips = counted_clips([&] {
            eval::batch_acquisition acquisition(pointers(pieced_lanes), settings);
            std::size_t first = 0;
            for (const std::size_t piece : pieces) {
                acquisition.feed_lane_major(block.data() + first * n_per_period * n_lanes,
                                            piece * n_per_period);
                first += piece;
            }
            pieced = acquisition.finish();
        });
        std::vector<signature_result> whole;
        const std::uint64_t whole_clips = counted_clips(
            [&] { whole = acquire_in_one_feed(pointers(whole_lanes), settings, block.data(), false); });
        EXPECT_EQ(pieced_clips, whole_clips);
        clips += pieced_clips;

        ASSERT_EQ(pieced.size(), n_lanes);
        ASSERT_EQ(whole.size(), n_lanes);
        for (std::size_t l = 0; l < n_lanes; ++l) {
            SCOPED_TRACE(testing::Message() << "lane " << l);
            const auto scalar = scalar_lanes[l].acquire(
                [&records, l](std::size_t n) { return records[l][n]; }, settings);
            expect_identical(scalar, pieced[l]);
            expect_identical(scalar, whole[l]);
            EXPECT_TRUE(pieced_lanes[l].rng_state() == scalar_lanes[l].rng_state());
            EXPECT_TRUE(whole_lanes[l].rng_state() == scalar_lanes[l].rng_state());
        }
    }
    EXPECT_GT(clips, 0u) << "the records never clipped, so the clip counts show nothing";
}

// Feeds are whole periods within the record, and an acquisition finishes
// only once its record is complete; a rejected feed consumes nothing.
TEST(AcquireBatch, ResumableAcquisitionRejectsFeedsOffTheRecord) {
    signature_extractor lane(sd::modulator_params::cmos035(), 3);
    std::vector<signature_extractor*> lanes = {&lane};
    acquisition_settings settings;
    settings.periods = 4;
    settings.offset = offset_mode::chopped;
    const auto record = lane_record(0, 6);
    eval::batch_acquisition acquisition(lanes, settings);
    EXPECT_THROW(acquisition.feed_shared(record.data(), 5 * 96), precondition_error)
        << "past the record";
    EXPECT_THROW(acquisition.feed_shared(record.data(), 100), precondition_error)
        << "off a period boundary";
    acquisition.feed_shared(record.data(), 96);
    EXPECT_EQ(acquisition.remaining(), 3u * 96);
    EXPECT_THROW((void)acquisition.finish(), precondition_error) << "before the record ends";
    EXPECT_THROW(acquisition.feed_shared(record.data(), 4 * 96), precondition_error)
        << "past the record";
    acquisition.feed_shared(record.data() + 96, 3 * 96);
    EXPECT_EQ(acquisition.finish().size(), 1u);
    EXPECT_THROW(acquisition.feed_shared(record.data(), 96), precondition_error)
        << "past the finished record";
}

INSTANTIATE_TEST_SUITE_P(OffsetModes, AcquireBatchModes,
                         ::testing::Values(offset_mode::none, offset_mode::calibrated,
                                           offset_mode::chopped));

// A mixed calibration group: noiseless keys (ideal, leak- and
// offset-faulted, whatever the seed) run one grounded channel for both
// rates, and noisy keys run both channels in the one bank -- two lanes
// under one seed share one key.  Every lane must end exactly where a twin
// running the scalar calibrate_offset does, its RNG included.
TEST(AcquireBatch, CalibrateOffsetBatchMatchesScalarCalibration) {
    auto leaky = sd::modulator_params::ideal();
    leaky.dc_gain_db = 40.0;
    leaky.input_offset = 1.0e-3; // a leak shows in the grounded rate only with an offset
    auto offset = sd::modulator_params::ideal();
    offset.input_offset = 3.0e-3;
    const auto cmos = sd::modulator_params::cmos035();
    const std::vector<std::pair<sd::modulator_params, std::uint64_t>> lanes = {
        {cmos, 50},   {sd::modulator_params::ideal(), 1}, {offset, 2},
        {cmos, 51},   {leaky, 3},   {cmos, 50},   {sd::modulator_params::ideal(), 4},
        {leaky, 5},   {offset, 2}};
    std::vector<signature_extractor> batch_lanes;
    std::vector<signature_extractor> scalar_lanes;
    std::vector<signature_extractor*> lane_ptrs;
    for (const auto& [params, seed] : lanes) {
        batch_lanes.emplace_back(params, seed);
        scalar_lanes.emplace_back(params, seed);
    }
    for (auto& lane : batch_lanes) {
        lane_ptrs.push_back(&lane);
    }
    eval::calibration_share share;
    EXPECT_EQ(signature_extractor::calibrate_offset_batch(lane_ptrs, share, 128), 5u)
        << "cmos035 at seeds 50 and 51, ideal, offset, leaky";
    for (std::size_t l = 0; l < lanes.size(); ++l) {
        scalar_lanes[l].calibrate_offset(128);
        EXPECT_TRUE(batch_lanes[l].offset_calibrated());
        EXPECT_EQ(scalar_lanes[l].offset_rate_ch1(), batch_lanes[l].offset_rate_ch1())
            << "lane " << l;
        EXPECT_EQ(scalar_lanes[l].offset_rate_ch2(), batch_lanes[l].offset_rate_ch2())
            << "lane " << l;
        EXPECT_EQ(scalar_lanes[l].calibration_samples(), batch_lanes[l].calibration_samples())
            << "lane " << l;
        EXPECT_TRUE(scalar_lanes[l].rng_state() == batch_lanes[l].rng_state()) << "lane " << l;
        if (!lanes[l].first.draws_noise()) {
            EXPECT_EQ(batch_lanes[l].offset_rate_ch1(), batch_lanes[l].offset_rate_ch2())
                << "lane " << l;
        }
    }
    // The faults move the rates, so a rate read from another lane shows.
    EXPECT_NE(batch_lanes[1].offset_rate_ch1(), batch_lanes[2].offset_rate_ch1());
    EXPECT_NE(batch_lanes[2].offset_rate_ch1(), batch_lanes[4].offset_rate_ch1());
}

TEST(AcquireBatch, RejectsMismatchedAndShortInputs) {
    const auto params = sd::modulator_params::ideal();
    signature_extractor lane(params, 1);
    std::vector<signature_extractor*> lanes = {&lane};
    acquisition_settings settings;
    settings.periods = 10;
    settings.offset = offset_mode::none;

    std::vector<signature_extractor*> no_lanes;
    EXPECT_THROW(eval::batch_acquisition(no_lanes, settings), precondition_error);
    std::vector<signature_extractor*> null_lane = {nullptr};
    EXPECT_THROW(eval::batch_acquisition(null_lane, settings), precondition_error);
    const auto record = lane_record(0, 10);
    eval::batch_acquisition acquisition(lanes, settings);
    acquisition.feed_shared(record.data(), 5 * 96);
    EXPECT_THROW((void)acquisition.finish(), precondition_error) << "half a record";
}

evaluator_config lane_config(std::uint64_t seed, offset_mode offset) {
    evaluator_config config;
    config.modulator = sd::modulator_params::cmos035();
    config.seed = seed;
    config.offset = offset;
    config.calibration_periods = 64; // keep the test fast
    return config;
}

/// A batch evaluator on its own calibration share.
struct batch_fixture {
    eval::calibration_share calibration;
    batch_evaluator batch;

    explicit batch_fixture(std::vector<evaluator_config> configs)
        : batch(std::move(configs), calibration) {}
};

/// Harmonic k of the requested lanes over a lane-major block, through the
/// evaluator's acquisition set-up, one feed and the estimator.
std::vector<eval::harmonic_measurement> measure_harmonic(batch_evaluator& batch,
                                                         std::span<const std::size_t> lane_ids,
                                                         const std::vector<double>& block,
                                                         std::size_t k, std::size_t periods) {
    eval::batch_acquisition acquisition = batch.begin_acquisition(lane_ids, k, periods);
    acquisition.feed_lane_major(block.data(), acquisition.remaining());
    std::vector<eval::harmonic_measurement> out;
    for (const signature_result& signature : acquisition.finish()) {
        out.push_back(eval::estimate_harmonic(signature));
    }
    return out;
}

std::vector<std::size_t> all_lanes(std::size_t n) {
    std::vector<std::size_t> lanes(n);
    for (std::size_t l = 0; l < n; ++l) {
        lanes[l] = l;
    }
    return lanes;
}

TEST(BatchEvaluator, HarmonicMeasurementsBitIdenticalToScalarEvaluator) {
    constexpr std::size_t n_lanes = 4;
    constexpr std::size_t periods = 32;

    std::vector<evaluator_config> configs;
    for (std::size_t l = 0; l < n_lanes; ++l) {
        configs.push_back(lane_config(300 + l, offset_mode::calibrated));
    }
    batch_fixture fixture(configs);

    std::vector<std::vector<double>> records;
    for (std::size_t l = 0; l < n_lanes; ++l) {
        records.push_back(lane_record(l, periods));
    }
    const auto block = lane_major_block(records);
    const auto batched = measure_harmonic(fixture.batch, all_lanes(n_lanes), block, 1, periods);
    ASSERT_EQ(batched.size(), n_lanes);
    for (std::size_t l = 0; l < n_lanes; ++l) {
        eval::sinewave_evaluator scalar(configs[l]);
        const auto expected = scalar.measure_harmonic(
            [&records, l](std::size_t n) { return records[l][n]; }, 1, periods);
        EXPECT_EQ(expected.amplitude.volts, batched[l].amplitude.volts) << "lane " << l;
        EXPECT_EQ(expected.amplitude.bounds_volts, batched[l].amplitude.bounds_volts);
        ASSERT_EQ(expected.phase.has_value(), batched[l].phase.has_value());
        if (expected.phase) {
            EXPECT_EQ(expected.phase->radians, batched[l].phase->radians) << "lane " << l;
            EXPECT_EQ(expected.phase->bounds_radians, batched[l].phase->bounds_radians);
        }
        expect_identical(expected.signature, batched[l].signature);
    }
}

TEST(BatchEvaluator, DcAndThdBitIdenticalToScalarEvaluator) {
    constexpr std::size_t n_lanes = 3;
    constexpr std::size_t periods = 32;

    std::vector<evaluator_config> configs;
    for (std::size_t l = 0; l < n_lanes; ++l) {
        configs.push_back(lane_config(700 + l, offset_mode::none));
    }
    std::vector<std::vector<double>> records;
    for (std::size_t l = 0; l < n_lanes; ++l) {
        records.push_back(lane_record(l, periods));
    }
    const auto block = lane_major_block(records);

    // DC (k = 0) through the lane-major extractor kernel.
    std::vector<signature_extractor> dc_lanes;
    std::vector<signature_extractor*> dc_ptrs;
    for (const auto& config : configs) {
        dc_lanes.emplace_back(config.modulator, config.seed);
    }
    for (auto& lane : dc_lanes) {
        dc_ptrs.push_back(&lane);
    }
    acquisition_settings dc_settings;
    dc_settings.harmonic_k = 0;
    dc_settings.periods = periods;
    dc_settings.offset = offset_mode::none;
    const auto dc_sigs = acquire_in_one_feed(dc_ptrs, dc_settings, block.data(), false);
    // THD the way the sweep engine measures it: one acquisition per
    // harmonic thd_harmonics names, set up in order, then the amplitudes.
    batch_fixture thd_fixture(configs);
    std::vector<std::vector<eval::amplitude_measurement>> amplitudes(n_lanes);
    for (const std::size_t k : eval::thd_harmonics(3)) {
        const auto harmonics = measure_harmonic(thd_fixture.batch, all_lanes(n_lanes), block, k,
                                                periods);
        for (std::size_t l = 0; l < n_lanes; ++l) {
            amplitudes[l].push_back(harmonics[l].amplitude);
        }
    }
    ASSERT_EQ(dc_sigs.size(), n_lanes);
    for (std::size_t l = 0; l < n_lanes; ++l) {
        const auto dc = eval::estimate_dc(dc_sigs[l]);
        auto source = [&records, l](std::size_t n) { return records[l][n]; };
        eval::sinewave_evaluator scalar_dc(configs[l]);
        const auto expected_dc = scalar_dc.measure_dc(source, periods);
        EXPECT_EQ(expected_dc.volts, dc.volts) << "lane " << l;
        EXPECT_EQ(expected_dc.bounds_volts, dc.bounds_volts) << "lane " << l;

        eval::sinewave_evaluator scalar_thd(configs[l]);
        const auto expected_thd = scalar_thd.measure_thd(source, 3, periods);
        const auto thd = eval::compute_thd_lenient(amplitudes[l]);
        EXPECT_EQ(expected_thd.db, thd.db) << "lane " << l;
        EXPECT_EQ(expected_thd.bounds_db, thd.bounds_db) << "lane " << l;
    }
}

// Dropping a lane from later acquisitions (the screening self-test gate)
// must not perturb the remaining lanes' streams.
TEST(BatchEvaluator, LaneSubsetAcquisitionLeavesOtherLanesUntouched) {
    constexpr std::size_t periods = 24;
    std::vector<evaluator_config> configs = {lane_config(1, offset_mode::calibrated),
                                             lane_config(2, offset_mode::calibrated),
                                             lane_config(3, offset_mode::calibrated)};
    batch_fixture fixture(configs);

    std::vector<std::vector<double>> records;
    for (std::size_t l = 0; l < configs.size(); ++l) {
        records.push_back(lane_record(l, periods));
    }

    // First acquisition over all lanes, second over lanes {0, 2} only.
    const auto all_block = lane_major_block(records);
    const auto first =
        measure_harmonic(fixture.batch, all_lanes(configs.size()), all_block, 1, periods);
    const std::vector<std::size_t> subset = {0, 2};
    const auto subset_block = lane_major_block({records[0], records[2]});
    const auto second = measure_harmonic(fixture.batch, subset, subset_block, 1, periods);
    ASSERT_EQ(second.size(), 2u);

    // Scalar counterpart: lane 0 and 2 run two measurements, lane 1 one.
    for (std::size_t i = 0; i < subset.size(); ++i) {
        const std::size_t l = subset[i];
        eval::sinewave_evaluator scalar(configs[l]);
        auto source = [&records, l](std::size_t n) { return records[l][n]; };
        const auto scalar_first = scalar.measure_harmonic(source, 1, periods);
        const auto scalar_second = scalar.measure_harmonic(source, 1, periods);
        EXPECT_EQ(scalar_first.amplitude.volts, first[l].amplitude.volts);
        EXPECT_EQ(scalar_second.amplitude.volts, second[i].amplitude.volts);
        expect_identical(scalar_second.signature, second[i].signature);
    }
}

TEST(BatchEvaluator, RejectsHeterogeneousSharedSettings) {
    std::vector<evaluator_config> configs = {lane_config(1, offset_mode::calibrated),
                                             lane_config(2, offset_mode::none)};
    EXPECT_THROW(batch_fixture b(configs), precondition_error);
    EXPECT_THROW(batch_fixture b(std::vector<evaluator_config>{}), precondition_error);
}

// One calibration per distinct (params, seed) key, in one pass: duplicates
// take the rates of their key's run, and every lane -- first, duplicate or
// lone -- still matches a scalar evaluator that calibrated itself.
TEST(BatchEvaluator, CalibratesEachDistinctKeyOnceAndStaysBitIdentical) {
    constexpr std::size_t periods = 16;
    auto leaky = lane_config(5, offset_mode::calibrated);
    leaky.modulator.dc_gain_db = 50.0;
    const std::vector<evaluator_config> configs = {
        lane_config(5, offset_mode::calibrated), lane_config(6, offset_mode::calibrated),
        lane_config(5, offset_mode::calibrated), leaky,
        lane_config(6, offset_mode::calibrated)};
    batch_fixture fixture(configs);
    const std::vector<std::vector<double>> records(configs.size(), lane_record(1, periods));
    const auto block = lane_major_block(records);
    const auto batched =
        measure_harmonic(fixture.batch, all_lanes(configs.size()), block, 1, periods);
    EXPECT_EQ(fixture.calibration.entries(), 3u) << "seed 5, seed 6, leaky seed 5";

    for (std::size_t l = 0; l < configs.size(); ++l) {
        eval::sinewave_evaluator scalar(configs[l]);
        const auto expected = scalar.measure_harmonic(
            [&records, l](std::size_t n) { return records[l][n]; }, 1, periods);
        EXPECT_EQ(scalar.extractor().offset_rate_ch1(),
                  fixture.batch.extractor(l).offset_rate_ch1())
            << "lane " << l;
        expect_identical(expected.signature, batched[l].signature);
    }
}

/// Measure harmonic 1 of every lane of `configs` (a distinct record each)
/// in one batch and check each lane against a scalar evaluator with its own
/// config and seed: offset rates, then the measurement, whose initial
/// states also pin each lane's RNG position.  Returns the share's size.
std::size_t expect_lanes_match_scalar(const std::vector<evaluator_config>& configs) {
    constexpr std::size_t periods = 16;
    batch_fixture fixture(configs);
    std::vector<std::vector<double>> records;
    for (std::size_t l = 0; l < configs.size(); ++l) {
        records.push_back(lane_record(l, periods));
    }
    const auto block = lane_major_block(records);
    const auto batched =
        measure_harmonic(fixture.batch, all_lanes(configs.size()), block, 1, periods);
    for (std::size_t l = 0; l < configs.size(); ++l) {
        eval::sinewave_evaluator scalar(configs[l]);
        scalar.calibrate();
        const auto& lane = fixture.batch.extractor(l);
        EXPECT_EQ(scalar.extractor().offset_rate_ch1(), lane.offset_rate_ch1()) << "lane " << l;
        EXPECT_EQ(scalar.extractor().offset_rate_ch2(), lane.offset_rate_ch2()) << "lane " << l;
        const auto expected = scalar.measure_harmonic(
            [&records, l](std::size_t n) { return records[l][n]; }, 1, periods);
        expect_identical(expected.signature, batched[l].signature);
        EXPECT_EQ(expected.amplitude.volts, batched[l].amplitude.volts) << "lane " << l;
    }
    return fixture.calibration.entries();
}

// Noiseless modulators never read their RNG, so lanes share a calibration
// per distinct params whatever their seeds, and each stays bit-identical
// to a scalar evaluator with its own seed.
TEST(BatchEvaluator, NoiselessLanesCalibrateOncePerModulator) {
    std::vector<evaluator_config> configs;
    for (std::uint64_t seed = 11; seed <= 15; ++seed) {
        auto config = lane_config(seed, offset_mode::calibrated);
        config.modulator = sd::modulator_params::ideal();
        configs.push_back(config);
    }
    for (std::size_t i = 1; i <= 3; ++i) {
        auto config = lane_config(20 + i, offset_mode::calibrated);
        config.modulator = sd::modulator_params::ideal();
        config.modulator.dc_gain_db =
            sd::modulator_params::dc_gain_db_for_leak(0.005 * static_cast<double>(i));
        configs.push_back(config);
    }
    EXPECT_EQ(expect_lanes_match_scalar(configs), 4u) << "ideal + three leaks";
}

// Noisy modulators key on the stream position: one calibration per seed.
TEST(BatchEvaluator, NoisyLanesCalibrateOncePerSeed) {
    std::vector<evaluator_config> configs;
    for (std::uint64_t seed : {5, 6, 5, 7, 6, 5}) {
        configs.push_back(lane_config(seed, offset_mode::calibrated));
    }
    EXPECT_EQ(expect_lanes_match_scalar(configs), 3u) << "seeds 5, 6 and 7";
}

/// The key of a cmos035 lane's 64-period calibration from stream `seed`.
eval::calibration_key noisy_key(std::uint64_t seed) {
    return eval::calibration_key(sd::modulator_params::cmos035(), 64 * 96, rng(seed));
}

/// Fill `share` to its cap with distinct noisy keys, seeds 1000 upwards.
void fill_share(eval::calibration_share& share) {
    for (std::uint64_t i = 0; i < eval::calibration_share::max_entries; ++i) {
        share.store(noisy_key(1000 + i), {});
    }
}

// A full share evicts its oldest key instead of refusing the new one.
TEST(BatchEvaluator, FullCalibrationShareEvictsItsOldestKey) {
    eval::calibration_share share;
    const auto held = [&share](std::uint64_t seed) {
        return share.find(noisy_key(seed)).has_value();
    };
    fill_share(share);
    ASSERT_EQ(share.entries(), eval::calibration_share::max_entries);
    ASSERT_TRUE(held(1000));

    share.store(noisy_key(99), {});
    EXPECT_TRUE(held(99)) << "the new key is published";
    EXPECT_FALSE(held(1000)) << "the oldest key is gone";
    EXPECT_TRUE(held(1001));
    EXPECT_EQ(share.entries(), eval::calibration_share::max_entries);

    // Republishing a resident key does not move it to the back.
    share.store(noisy_key(1001), {});
    share.store(noisy_key(98), {});
    EXPECT_FALSE(held(1001));
    EXPECT_TRUE(held(1002));
}

// A 16-lane group of one new key on a full share runs the key once and
// hands its rates to the other 15 lanes, and every lane still matches a
// scalar evaluator that calibrated itself.
TEST(BatchEvaluator, FullShareStillCalibratesANewKeyOnce) {
    constexpr std::size_t lanes = 16;
    constexpr std::size_t periods = 16;
    const std::vector<evaluator_config> configs(lanes,
                                                lane_config(7, offset_mode::calibrated));
    batch_fixture fixture(configs);
    fill_share(fixture.calibration);
    const std::vector<std::vector<double>> records(lanes, lane_record(2, periods));
    const auto block = lane_major_block(records);

    telemetry::metric_registry registry;
    std::vector<eval::harmonic_measurement> batched;
    {
        telemetry::registry_scope scope(registry);
        batched = measure_harmonic(fixture.batch, all_lanes(lanes), block, 1, periods);
    }
    const auto snapshot = registry.snapshot();
    EXPECT_EQ(snapshot.counter("eval.calibration.runs"), 1u);
    EXPECT_EQ(snapshot.counter("eval.calibration.restores"), lanes - 1);

    eval::sinewave_evaluator scalar(configs.front());
    const auto expected = scalar.measure_harmonic(
        [&records](std::size_t n) { return records.front()[n]; }, 1, periods);
    for (std::size_t l = 0; l < lanes; ++l) {
        EXPECT_EQ(scalar.extractor().offset_rate_ch1(),
                  fixture.batch.extractor(l).offset_rate_ch1())
            << "lane " << l;
        expect_identical(expected.signature, batched[l].signature);
    }
}

} // namespace
