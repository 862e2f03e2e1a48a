// Signature acquisition: offset handling modes, checkpoints, validation.
#include "common/error.hpp"
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "common/math_util.hpp"
#include "eval/estimator.hpp"
#include "eval/signature.hpp"

namespace {

using namespace bistna;
using eval::acquisition_settings;
using eval::offset_mode;
using eval::signature_extractor;

constexpr std::size_t kN = 96;

eval::sample_source sine_source(double amplitude, std::size_t k, double phase) {
    return [=](std::size_t n) {
        return amplitude *
               std::sin(two_pi * static_cast<double>(k) * static_cast<double>(n) / kN + phase);
    };
}

TEST(Signature, OffsetCorruptsUncompensatedDcMeasurement) {
    auto params = sd::modulator_params::ideal();
    params.input_offset = 10e-3;
    signature_extractor extractor(params, 3);
    acquisition_settings settings;
    settings.harmonic_k = 0;
    settings.periods = 200;
    settings.offset = offset_mode::none;
    const auto sig = extractor.acquire([](std::size_t) { return 0.0; }, settings);
    const auto dc = eval::estimate_dc(sig);
    // Reads the offset instead of the true zero input.
    EXPECT_NEAR(dc.volts, 10e-3, 2e-3);
}

TEST(Signature, CalibrationRemovesOffset) {
    auto params = sd::modulator_params::ideal();
    params.input_offset = 10e-3;
    signature_extractor extractor(params, 3);
    extractor.calibrate_offset(4096);
    acquisition_settings settings;
    settings.harmonic_k = 0;
    settings.periods = 200;
    settings.offset = offset_mode::calibrated;
    const auto sig = extractor.acquire([](std::size_t) { return 0.05; }, settings);
    const auto dc = eval::estimate_dc(sig);
    EXPECT_TRUE(dc.bounds_volts.contains(0.05))
        << "got " << dc.volts << " in [" << dc.bounds_volts.lo() << ", "
        << dc.bounds_volts.hi() << "]";
}

TEST(Signature, ChoppingRemovesOffsetWithoutCalibration) {
    auto params = sd::modulator_params::ideal();
    params.input_offset = 10e-3;
    signature_extractor extractor(params, 3);
    acquisition_settings settings;
    settings.harmonic_k = 1;
    settings.periods = 200;
    settings.offset = offset_mode::chopped;
    const auto sig = extractor.acquire(sine_source(0.2, 1, 0.9), settings);
    const auto amp = eval::estimate_amplitude(sig);
    EXPECT_TRUE(amp.bounds_volts.contains(0.2))
        << "got " << amp.volts << " +/- " << amp.bounds_volts.radius();
    EXPECT_DOUBLE_EQ(sig.eps_bound, 8.0); // documented chop bound
}

TEST(Signature, ChopRequiresEvenPeriods) {
    signature_extractor extractor(sd::modulator_params::ideal(), 3);
    acquisition_settings settings;
    settings.harmonic_k = 1;
    settings.periods = 201; // odd
    settings.offset = offset_mode::chopped;
    EXPECT_THROW((void)extractor.acquire(sine_source(0.1, 1, 0.0), settings),
                 precondition_error);
}

TEST(Signature, CalibratedModeRequiresCalibration) {
    signature_extractor extractor(sd::modulator_params::ideal(), 3);
    acquisition_settings settings;
    settings.offset = offset_mode::calibrated;
    EXPECT_THROW((void)extractor.acquire(sine_source(0.1, 1, 0.0), settings),
                 precondition_error);
}

TEST(Signature, RawCountsAreIntegerBitSums) {
    signature_extractor extractor(sd::modulator_params::ideal(), 3);
    acquisition_settings settings;
    settings.harmonic_k = 1;
    settings.periods = 10;
    settings.offset = offset_mode::none;
    const auto sig = extractor.acquire(sine_source(0.3, 1, 0.0), settings);
    EXPECT_LE(std::abs(sig.raw_i1), static_cast<long long>(sig.total_samples));
    EXPECT_LE(std::abs(sig.raw_i2), static_cast<long long>(sig.total_samples));
    EXPECT_EQ(sig.total_samples, 10u * kN);
}

TEST(Signature, CheckpointsMatchIndividualRuns) {
    // A checkpointed acquisition must agree with the same-length direct
    // acquisition.  The two extractors share a seed, so both draw the same
    // initial states, in the same order, from the same stream.
    auto params = sd::modulator_params::ideal();
    signature_extractor ex1(params, 5);
    signature_extractor ex2(params, 5);

    acquisition_settings settings;
    settings.harmonic_k = 1;
    settings.offset = offset_mode::none;

    const auto source = sine_source(0.25, 1, 1.7);
    const auto checkpointed = ex1.acquire_with_checkpoints(source, settings, {20, 50, 100});

    settings.periods = 100;
    const auto direct = ex2.acquire(source, settings);
    ASSERT_EQ(checkpointed.size(), 3u);
    EXPECT_EQ(checkpointed.back().raw_i1, direct.raw_i1);
    EXPECT_EQ(checkpointed.back().raw_i2, direct.raw_i2);
    EXPECT_EQ(checkpointed[0].periods, 20u);
    EXPECT_EQ(checkpointed[1].total_samples, 50u * kN);
}

TEST(Signature, CheckpointsRejectChoppedMode) {
    signature_extractor extractor(sd::modulator_params::ideal(), 5);
    acquisition_settings settings;
    settings.offset = offset_mode::chopped;
    EXPECT_THROW((void)extractor.acquire_with_checkpoints(sine_source(0.1, 1, 0.0), settings,
                                                          {10, 20}),
                 precondition_error);
}

// The calibration share keys a noiseless modulator's snapshot on its
// params alone: a noiseless modulator never reads its RNG and the grounded
// loop starts from a fixed state, so the seed can only move the stream by
// the two spawns.  This fails if calibration ever starts reading the RNG.
TEST(Signature, NoiselessCalibrationIgnoresTheSeed) {
    const auto after_two_spawns = [](std::uint64_t seed) {
        bistna::rng stream(seed);
        (void)stream.spawn();
        (void)stream.spawn();
        return stream;
    };
    auto leaky = sd::modulator_params::ideal();
    leaky.dc_gain_db = sd::modulator_params::dc_gain_db_for_leak(0.01);
    auto offset = sd::modulator_params::ideal();
    offset.input_offset = 10e-3;
    offset.comparator_offset = 10e-3;
    for (const auto& params : {sd::modulator_params::ideal(), leaky, offset}) {
        ASSERT_FALSE(params.draws_noise());
        signature_extractor one(params, 1);
        signature_extractor two(params, 2);
        one.calibrate_offset(256);
        two.calibrate_offset(256);
        EXPECT_EQ(one.offset_rate_ch1(), two.offset_rate_ch1());
        EXPECT_EQ(one.offset_rate_ch2(), two.offset_rate_ch2());
        EXPECT_EQ(one.calibration_samples(), two.calibration_samples());

        EXPECT_TRUE(one.rng_state() == after_two_spawns(1));
        EXPECT_TRUE(two.rng_state() == after_two_spawns(2));
    }

    // A noisy modulator's rates do move with the seed.  cmos035's 60 uV of
    // noise moves a grounded count by less than one count here, so this
    // control raises it to 5 mV, where seeds 1 and 2 differ.
    auto noisy = sd::modulator_params::cmos035();
    noisy.noise_rms = 5e-3;
    signature_extractor one(noisy, 1);
    signature_extractor two(noisy, 2);
    one.calibrate_offset(256);
    two.calibrate_offset(256);
    EXPECT_TRUE(one.offset_rate_ch1() != two.offset_rate_ch1() ||
                one.offset_rate_ch2() != two.offset_rate_ch2());
}

TEST(Signature, EveryCheckpointSatisfiesEq4) {
    signature_extractor extractor(sd::modulator_params::ideal(), 21);
    acquisition_settings settings;
    settings.harmonic_k = 1;
    settings.offset = offset_mode::none;
    const double amplitude = 0.15;
    const auto sigs = extractor.acquire_with_checkpoints(
        sine_source(amplitude, 1, 0.6), settings, {20, 40, 80, 160, 320, 640});
    for (const auto& sig : sigs) {
        const auto amp = eval::estimate_amplitude(sig);
        EXPECT_TRUE(amp.bounds_volts.contains(amplitude)) << "M = " << sig.periods;
    }
}

} // namespace
