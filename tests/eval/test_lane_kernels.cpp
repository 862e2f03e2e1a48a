// Lane-major evaluation kernels: every batched acquisition variant
// (lane-major block, shared broadcast record) must be bit-identical to the
// scalar references, and the calibration transplant must be transparent.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/math_util.hpp"
#include "eval/acquire_plan.hpp"
#include "eval/signature.hpp"

namespace {

using namespace bistna;
using eval::acquisition_settings;
using eval::calibration_share;
using eval::calibration_snapshot;
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
        expect_scalar(signature_extractor::acquire_batch_lane_major(fast.pointers,
                                                                    lane_major.data(), settings),
                      false);
    }
    // One broadcast record shared by every lane.
    {
        lane_set fast(lanes);
        expect_scalar(
            signature_extractor::acquire_batch_shared(fast.pointers, records[0], settings), true);
    }
}

/// A snapshot of the calibration a donor lane ran from `seed`.
calibration_snapshot calibrated_snapshot(const sd::modulator_params& params,
                                         std::uint64_t seed, std::size_t cal_periods) {
    signature_extractor donor(params, seed);
    calibration_snapshot snapshot;
    snapshot.params = params;
    snapshot.rng_before = donor.rng_state();
    donor.calibrate_offset(cal_periods, kN);
    snapshot.offset_rate_1 = donor.offset_rate_ch1();
    snapshot.offset_rate_2 = donor.offset_rate_ch2();
    snapshot.calibration_samples = donor.calibration_samples();
    return snapshot;
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

TEST(LaneKernels, CalibrationTransplantIsBitIdenticalToCalibrating) {
    const auto params = sd::modulator_params::cmos035();
    const std::uint64_t seed = 42;
    const std::size_t cal_periods = 256;

    // Reference lane calibrates itself.
    signature_extractor reference(params, seed);
    reference.calibrate_offset(cal_periods, kN);

    // Donor lane calibrates and publishes a snapshot.
    const auto snapshot = calibrated_snapshot(params, seed, cal_periods);

    // Receiver adopts it instead of calibrating.
    signature_extractor receiver(params, seed);
    ASSERT_TRUE(receiver.try_restore_calibration(snapshot));
    EXPECT_TRUE(receiver.offset_calibrated());
    EXPECT_EQ(receiver.offset_rate_ch1(), reference.offset_rate_ch1());
    EXPECT_EQ(receiver.offset_rate_ch2(), reference.offset_rate_ch2());

    // And the next acquisition is bit-identical to the self-calibrated lane.
    expect_same_acquisition(receiver, reference);

    // Restores are refused on any mismatch: already calibrated, wrong
    // stream position, or wrong params.
    EXPECT_FALSE(receiver.try_restore_calibration(snapshot)) << "already calibrated";
    signature_extractor wrong_seed(params, seed + 1);
    EXPECT_FALSE(wrong_seed.try_restore_calibration(snapshot));
    auto other_params = params;
    other_params.input_offset += 1e-3;
    signature_extractor wrong_params(other_params, seed);
    EXPECT_FALSE(wrong_params.try_restore_calibration(snapshot));
}

// A noiseless lane adopts a snapshot whatever its seed: the grounded loop
// never reads the RNG, and the restore advances the stream by the two spawns
// calibrate_offset makes, so the lane's next acquisition is still its own.
TEST(LaneKernels, NoiselessTransplantIgnoresTheSeed) {
    auto params = sd::modulator_params::ideal();
    params.input_offset = 5e-3;
    const auto snapshot = calibrated_snapshot(params, 7, 128);

    signature_extractor receiver(params, 8);
    ASSERT_TRUE(receiver.try_restore_calibration(snapshot));
    signature_extractor twin(params, 8);
    twin.calibrate_offset(128, kN);
    EXPECT_TRUE(receiver.rng_state() == twin.rng_state());
    EXPECT_EQ(receiver.offset_rate_ch1(), twin.offset_rate_ch1());
    EXPECT_EQ(receiver.offset_rate_ch2(), twin.offset_rate_ch2());
    EXPECT_EQ(receiver.calibration_samples(), twin.calibration_samples());
    expect_same_acquisition(receiver, twin);
}

TEST(LaneKernels, CalibrationShareVerifiesParamsOnLookup) {
    calibration_share share;
    const auto params = sd::modulator_params::cmos035();
    share.store(7, 128, kN, calibrated_snapshot(params, 7, 128));
    EXPECT_EQ(share.entries(), 1u);

    EXPECT_NE(share.find(params, 7, 128, kN), nullptr);
    EXPECT_EQ(share.find(params, 8, 128, kN), nullptr) << "different seed, noisy params";
    EXPECT_EQ(share.find(params, 7, 256, kN), nullptr) << "different length";
    auto other = params;
    other.noise_rms += 1e-6;
    EXPECT_EQ(share.find(other, 7, 128, kN), nullptr) << "different params";

    // Noiseless params key on the params and the length alone.
    const auto ideal = sd::modulator_params::ideal();
    share.store(7, 128, kN, calibrated_snapshot(ideal, 7, 128));
    EXPECT_EQ(share.entries(), 2u);
    EXPECT_NE(share.find(ideal, 7, 128, kN), nullptr);
    EXPECT_NE(share.find(ideal, 8, 128, kN), nullptr) << "different seed, noiseless params";
    EXPECT_EQ(share.find(ideal, 8, 256, kN), nullptr) << "different length";

    // The lookup checks the snapshot's own length too, so a snapshot filed
    // under the wrong key (as a hash collision would) is never served.
    auto offset = ideal;
    offset.input_offset = 1e-3;
    share.store(7, 256, kN, calibrated_snapshot(offset, 7, 128));
    EXPECT_EQ(share.find(offset, 7, 256, kN), nullptr) << "128-period snapshot, 256 asked";
}

} // namespace
