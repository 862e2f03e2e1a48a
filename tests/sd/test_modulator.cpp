// Tests for the 1st-order sigma-delta modulator: mean tracking, the
// bounded-state property behind the paper's eps in [-4, 4], and behaviour
// under the documented non-idealities.
#include "common/error.hpp"
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <tuple>

#include "common/math_util.hpp"
#include "common/normal.hpp"
#include "common/rng.hpp"
#include "sd/comparator.hpp"
#include "sd/modulator.hpp"

namespace {

using bistna::sd::modulator_params;
using bistna::sd::sd_modulator;

TEST(SdModulator, BitstreamMeanTracksDcInput) {
    sd_modulator mod(modulator_params::ideal());
    const double vref = mod.params().vref;
    for (double dc : {-0.5, -0.1, 0.0, 0.2, 0.6}) {
        mod.reset();
        long long acc = 0;
        const std::size_t n = 100000;
        for (std::size_t i = 0; i < n; ++i) {
            acc += mod.step(dc, true);
        }
        const double mean = vref * static_cast<double>(acc) / static_cast<double>(n);
        EXPECT_NEAR(mean, dc, 5.0 * vref / static_cast<double>(n) * 4.0)
            << "dc = " << dc;
    }
}

TEST(SdModulator, ModulationControlFlipsInputSign) {
    sd_modulator plus(modulator_params::ideal());
    sd_modulator minus(modulator_params::ideal());
    long long acc_plus = 0;
    long long acc_minus = 0;
    const std::size_t n = 50000;
    for (std::size_t i = 0; i < n; ++i) {
        acc_plus += plus.step(0.3, true);
        acc_minus += minus.step(0.3, false);
    }
    EXPECT_NEAR(static_cast<double>(acc_plus), -static_cast<double>(acc_minus), 8.0);
}

TEST(SdModulator, StateStaysBoundedForInRangeInput) {
    sd_modulator mod(modulator_params::ideal());
    const double vref = mod.params().vref;
    bistna::rng rng(7);
    double max_state = 0.0;
    for (std::size_t i = 0; i < 200000; ++i) {
        const double x = rng.uniform(-vref, vref);
        mod.step(x, rng.bernoulli(0.5));
        max_state = std::max(max_state, std::abs(mod.state()));
    }
    // Band derived in modulator.hpp: |w| <= 2*b*vref = 0.8*vref.
    EXPECT_LE(max_state, 0.8 * vref + 1e-12);
}

// ---------------------------------------------------------------------------
// The central property: |sum(y)/vref - sum(d)| <= 4 for any in-range input.
// Parameterized over signal shapes and lengths.
// ---------------------------------------------------------------------------

class EpsilonBoundTest
    : public ::testing::TestWithParam<std::tuple<double, double, std::size_t, unsigned>> {};

TEST_P(EpsilonBoundTest, AccumulatedErrorWithinFourLsb) {
    const auto [amplitude, freq_norm, length, seed] = GetParam();
    sd_modulator mod(modulator_params::ideal());
    const double vref = mod.params().vref;
    bistna::rng rng(seed);
    mod.reset(rng.uniform(-0.5, 0.5) * vref);

    double sum_y = 0.0;
    long long sum_d = 0;
    const double phase = rng.uniform(0.0, bistna::two_pi);
    for (std::size_t n = 0; n < length; ++n) {
        const double x =
            amplitude * std::sin(bistna::two_pi * freq_norm * static_cast<double>(n) + phase);
        const bool q = (n / 16) % 2 == 0; // some square modulation
        const double y = q ? x : -x;
        sum_y += y;
        sum_d += mod.step(x, q);
    }
    const double eps = sum_y / vref - static_cast<double>(sum_d);
    EXPECT_LE(std::abs(eps), 4.0) << "amplitude=" << amplitude << " f=" << freq_norm
                                  << " len=" << length;
}

INSTANTIATE_TEST_SUITE_P(
    SignalSweep, EpsilonBoundTest,
    ::testing::Combine(::testing::Values(0.05, 0.2, 0.5, 0.69),
                       ::testing::Values(1.0 / 96.0, 3.0 / 96.0, 0.11, 0.37),
                       ::testing::Values(std::size_t{960}, std::size_t{9600}),
                       ::testing::Values(1u, 2u, 3u)));

TEST(SdModulator, LeakyIntegratorStillNearlyTracksMean) {
    modulator_params params = modulator_params::ideal();
    params.dc_gain_db = 60.0; // strong leak
    sd_modulator mod(params);
    long long acc = 0;
    const std::size_t n = 200000;
    for (std::size_t i = 0; i < n; ++i) {
        acc += mod.step(0.25, true);
    }
    const double mean = mod.params().vref * static_cast<double>(acc) / static_cast<double>(n);
    // Finite gain produces a small gain error, not a gross failure.
    EXPECT_NEAR(mean, 0.25, 0.01);
}

TEST(SdModulator, ComparatorOffsetShiftsBitstreamMean) {
    modulator_params params = modulator_params::ideal();
    params.input_offset = 5e-3;
    sd_modulator mod(params);
    long long acc = 0;
    const std::size_t n = 200000;
    for (std::size_t i = 0; i < n; ++i) {
        acc += mod.step(0.0, true);
    }
    const double mean = mod.params().vref * static_cast<double>(acc) / static_cast<double>(n);
    EXPECT_NEAR(mean, 5e-3, 5e-4); // offset shows up in the mean, as the paper says
}

TEST(SdModulator, ClipEventsCountedWhenInputExceedsStableRange) {
    modulator_params params = modulator_params::ideal();
    params.integrator_swing = 1.0;
    sd_modulator mod(params);
    for (std::size_t i = 0; i < 10000; ++i) {
        mod.step(2.5, true); // far out of range
    }
    EXPECT_GT(mod.clip_events(), 0u);
}

// The per-sample noise is noise_rms * standard_normal() on the modulator's
// own stream: replay sd_modulator::step by hand from a copy of that stream.
TEST(SdModulator, NoiseIsRmsTimesZigguratDraw) {
    const modulator_params params = modulator_params::cmos035();
    sd_modulator mod(params, bistna::rng(31));
    bistna::rng stream(31);
    bistna::sd::comparator latch(params.comparator_offset, params.comparator_hysteresis);
    const double swing = params.integrator_swing;
    double state = 0.0;
    for (std::size_t n = 0; n < 4096; ++n) {
        const double x = 0.3 * std::sin(bistna::two_pi * static_cast<double>(n) / 96.0);
        const bool q = (n / 48) % 2 == 0;
        const int bit = latch.decide(state);
        const double modulated = (q ? x : -x) + params.input_offset;
        const double increment =
            params.ci_over_cf * (modulated + params.noise_rms * bistna::standard_normal(stream) -
                                 static_cast<double>(bit) * params.vref);
        state = std::clamp(params.integrator_leak() * state +
                               increment * (1.0 - params.settling_error),
                           -swing, swing);
        ASSERT_EQ(mod.step(x, q), bit) << "sample " << n;
        ASSERT_EQ(mod.state(), state) << "sample " << n;
    }
}

TEST(SdModulator, RejectsNonPositiveConfig) {
    modulator_params params = modulator_params::ideal();
    params.ci_over_cf = 0.0;
    EXPECT_THROW(sd_modulator m(params), bistna::precondition_error);
    params = modulator_params::ideal();
    params.vref = -1.0;
    EXPECT_THROW(sd_modulator m(params), bistna::precondition_error);
}

} // namespace
