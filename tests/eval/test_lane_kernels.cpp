// Lane-major evaluation kernels: a batched acquisition over either input
// layout (lane-major block, shared broadcast record) must be bit-identical
// to the scalar references, and a reused calibration must be transparent.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "eval/calibration_share.hpp"
#include "eval/signature.hpp"

namespace {

using namespace bistna;
using eval::acquisition_settings;
using eval::calibration_key;
using eval::calibration_share;
using eval::signature_extractor;

constexpr std::size_t kN = 96;

std::vector<double> lane_record(std::size_t lane, std::size_t periods) {
    std::vector<double> record(periods * kN);
    const double amplitude = 0.1 + 0.02 * static_cast<double>(lane);
    const double phase = 0.3 * static_cast<double>(lane);
    for (std::size_t n = 0; n < record.size(); ++n) {
        const double angle = two_pi * static_cast<double>(n) / kN;
        record[n] = amplitude * std::sin(angle + phase) +
                    0.01 * std::sin(3.0 * angle + 0.5 * phase);
    }
    return record;
}

/// Fresh extractors with per-lane params/seeds, plus owning storage.
struct lane_set {
    std::vector<signature_extractor> extractors;
    std::vector<signature_extractor*> pointers;

    explicit lane_set(std::size_t lanes) {
        extractors.reserve(lanes);
        for (std::size_t l = 0; l < lanes; ++l) {
            auto params = sd::modulator_params::cmos035();
            params.input_offset += 1e-4 * static_cast<double>(l);
            extractors.emplace_back(params, 100 + l);
        }
        for (auto& extractor : extractors) {
            pointers.push_back(&extractor);
        }
    }
};

// The legacy reference is the scalar per-extractor acquire, in chopped mode
// so the inverted second-half pass is exercised too.
TEST(LaneKernels, LaneMajorAndSharedVariantsBitIdenticalToLegacy) {
    const std::size_t lanes = 5;
    const std::size_t periods = 16;
    acquisition_settings settings;
    settings.periods = periods;
    settings.harmonic_k = 1;
    settings.offset = eval::offset_mode::chopped;

    // Lane-major block of distinct records.
    std::vector<std::vector<double>> records;
    std::vector<double> lane_major(periods * kN * lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
        records.push_back(lane_record(l, periods));
        for (std::size_t n = 0; n < records[l].size(); ++n) {
            lane_major[n * lanes + l] = records[l][n];
        }
    }
    const auto expect_scalar = [&](const std::vector<eval::signature_result>& got,
                                   bool broadcast) {
        lane_set scalar(lanes);
        for (std::size_t l = 0; l < lanes; ++l) {
            const auto& record = records[broadcast ? 0 : l];
            const auto expected = scalar.extractors[l].acquire(
                [&record](std::size_t n) { return record[n]; }, settings);
            EXPECT_EQ(got[l].i1, expected.i1) << "lane " << l;
            EXPECT_EQ(got[l].i2, expected.i2) << "lane " << l;
            EXPECT_EQ(got[l].raw_i1, expected.raw_i1) << "lane " << l;
            EXPECT_EQ(got[l].raw_i2, expected.raw_i2) << "lane " << l;
            EXPECT_EQ(got[l].eps_bound, expected.eps_bound) << "lane " << l;
        }
    };
    {
        lane_set fast(lanes);
        eval::batch_acquisition acquisition(fast.pointers, settings);
        acquisition.feed_lane_major(lane_major.data(), acquisition.remaining());
        expect_scalar(acquisition.finish(), false);
    }
    // One broadcast record shared by every lane.
    {
        lane_set fast(lanes);
        eval::batch_acquisition acquisition(fast.pointers, settings);
        acquisition.feed_shared(records[0].data(), acquisition.remaining());
        expect_scalar(acquisition.finish(), true);
    }
}

/// Calibrate `lanes` in one batch on `share`; returns the keys the bank ran.
std::size_t calibrate(calibration_share& share, std::vector<signature_extractor*> lanes,
                      std::size_t cal_periods) {
    return signature_extractor::calibrate_offset_batch(lanes, share, cal_periods);
}

/// Two acquisitions are bit-identical.
void expect_same_acquisition(signature_extractor& got, signature_extractor& expected) {
    acquisition_settings settings;
    settings.periods = 16;
    settings.offset = eval::offset_mode::calibrated;
    const auto record = lane_record(1, settings.periods);
    const auto source = [&record](std::size_t n) { return record[n]; };
    const auto want = expected.acquire(source, settings);
    const auto have = got.acquire(source, settings);
    EXPECT_EQ(have.i1, want.i1);
    EXPECT_EQ(have.i2, want.i2);
    EXPECT_EQ(have.raw_i1, want.raw_i1);
    EXPECT_EQ(have.raw_i2, want.raw_i2);
}

/// A lane that reused a calibration ends where its twin, which ran
/// calibrate_offset itself, does: rates, length, the RNG after the two
/// spawns, and the next acquisition.
void expect_same_calibration(signature_extractor& got, signature_extractor& twin) {
    EXPECT_TRUE(got.offset_calibrated());
    EXPECT_EQ(got.offset_rate_ch1(), twin.offset_rate_ch1());
    EXPECT_EQ(got.offset_rate_ch2(), twin.offset_rate_ch2());
    EXPECT_EQ(got.calibration_samples(), twin.calibration_samples());
    EXPECT_TRUE(got.rng_state() == twin.rng_state());
    expect_same_acquisition(got, twin);
}

// A noisy lane reuses the calibration a donor at the same stream position
// published; any other stream position, params or length runs its own.
TEST(LaneKernels, CalibrationTransplantIsBitIdenticalToCalibrating) {
    const auto params = sd::modulator_params::cmos035();
    const std::uint64_t seed = 42;
    const std::size_t cal_periods = 256;
    calibration_share share;
    signature_extractor donor(params, seed);
    ASSERT_EQ(calibrate(share, {&donor}, cal_periods), 1u);

    signature_extractor receiver(params, seed);
    EXPECT_EQ(calibrate(share, {&receiver}, cal_periods), 0u) << "reused, not run";
    signature_extractor twin(params, seed);
    twin.calibrate_offset(cal_periods);
    expect_same_calibration(receiver, twin);

    signature_extractor other_seed(params, seed + 1);
    EXPECT_EQ(calibrate(share, {&other_seed}, cal_periods), 1u) << "another seed";
    signature_extractor moved(params, seed);
    moved.calibrate_offset(cal_periods);
    EXPECT_EQ(calibrate(share, {&moved}, cal_periods), 1u) << "the seed, further down";
    auto other_params = params;
    other_params.input_offset += 1e-3;
    signature_extractor wrong_params(other_params, seed);
    EXPECT_EQ(calibrate(share, {&wrong_params}, cal_periods), 1u) << "other params";
    signature_extractor longer(params, seed);
    EXPECT_EQ(calibrate(share, {&longer}, 2 * cal_periods), 1u) << "another length";
}

// A noiseless lane reuses a calibration whatever its seed: the grounded
// loop never reads the RNG, and the lane still spawns the two channels
// calibrate_offset would, so its next acquisition is still its own.
TEST(LaneKernels, NoiselessTransplantIgnoresTheSeed) {
    auto params = sd::modulator_params::ideal();
    params.input_offset = 5e-3;
    calibration_share share;
    signature_extractor donor(params, 7);
    ASSERT_EQ(calibrate(share, {&donor}, 128), 1u);

    signature_extractor receiver(params, 8);
    EXPECT_EQ(calibrate(share, {&receiver}, 128), 0u) << "reused, not run";
    signature_extractor twin(params, 8);
    twin.calibrate_offset(128);
    expect_same_calibration(receiver, twin);

    auto other_params = params;
    other_params.input_offset = 4e-3;
    signature_extractor wrong_params(other_params, 7);
    EXPECT_EQ(calibrate(share, {&wrong_params}, 128), 1u) << "other params";
    signature_extractor longer(params, 7);
    EXPECT_EQ(calibrate(share, {&longer}, 256), 1u) << "another length";
}

TEST(LaneKernels, CalibrationShareVerifiesParamsOnLookup) {
    const auto cmos = sd::modulator_params::cmos035();
    const std::size_t total = 128 * kN;
    calibration_share share;
    share.store(calibration_key(cmos, total, rng(7)), {0.25, -0.5});
    EXPECT_EQ(share.entries(), 1u);

    const auto hit = share.find(calibration_key(cmos, total, rng(7)));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->ch1, 0.25);
    EXPECT_EQ(hit->ch2, -0.5);
    const auto held = [&share](const calibration_key& key) {
        return share.find(key).has_value();
    };
    EXPECT_FALSE(held(calibration_key(cmos, total, rng(8)))) << "another stream";
    EXPECT_FALSE(held(calibration_key(cmos, 256 * kN, rng(7)))) << "another length";
    auto other = cmos;
    other.noise_rms += 1e-6;
    EXPECT_FALSE(held(calibration_key(other, total, rng(7)))) << "other params";

    // Noiseless params key on the params and the length alone.
    const auto ideal = sd::modulator_params::ideal();
    share.store(calibration_key(ideal, total, rng(7)), {0.125, 0.125});
    EXPECT_EQ(share.entries(), 2u);
    EXPECT_TRUE(held(calibration_key(ideal, total, rng(8)))) << "another stream";
    EXPECT_FALSE(held(calibration_key(ideal, 256 * kN, rng(7)))) << "another length";
}

// A NaN param is rejected before any calibration runs: it would leave the
// integrator state NaN, and the comparator would then decide one way
// forever and read as a saturated offset.  No key holds such params.
TEST(LaneKernels, CalibrationRejectsNanParams) {
    auto params = sd::modulator_params::ideal();
    params.dc_gain_db = std::numeric_limits<double>::quiet_NaN();
    calibration_share share;
    signature_extractor healthy(sd::modulator_params::ideal(), 1);
    signature_extractor broken(params, 2);
    EXPECT_THROW((void)calibrate(share, {&healthy, &broken}, 128), precondition_error);
    EXPECT_THROW((void)calibration_key(params, 128 * kN, rng(7)), precondition_error);
    EXPECT_EQ(share.entries(), 0u);
}

} // namespace
