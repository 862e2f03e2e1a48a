// Property tests for the paper's eqs. (3)-(5): the reported intervals must
// *always* contain the true DC level, amplitude and phase, for any
// in-range stimulus, any M, any aligned harmonic k.
#include "common/error.hpp"
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "common/math_util.hpp"
#include "eval/estimator.hpp"
#include "eval/evaluator.hpp"
#include "eval/signature.hpp"
#include "gen/generator.hpp"

namespace {

using namespace bistna;
using eval::acquisition_settings;
using eval::offset_mode;
using eval::signature_extractor;

constexpr std::size_t kN = 96;

eval::sample_source sine_source(double amplitude, std::size_t k, double phase,
                                double dc = 0.0) {
    return [=](std::size_t n) {
        return dc + amplitude * std::sin(two_pi * static_cast<double>(k) *
                                             static_cast<double>(n) / kN +
                                         phase);
    };
}

TEST(Estimator, DcLevelWithinEq3Bounds) {
    signature_extractor extractor(sd::modulator_params::ideal(), 11);
    for (double dc : {-0.3, -0.05, 0.0, 0.12, 0.5}) {
        acquisition_settings settings;
        settings.harmonic_k = 0;
        settings.periods = 64;
        settings.offset = offset_mode::none;
        const auto sig = extractor.acquire([=](std::size_t) { return dc; }, settings);
        const auto m = eval::estimate_dc(sig);
        EXPECT_TRUE(m.bounds_volts.contains(dc))
            << "dc=" << dc << " bounds=[" << m.bounds_volts.lo() << ", "
            << m.bounds_volts.hi() << "]";
        EXPECT_NEAR(m.volts, dc, m.bounds_volts.radius() + 1e-12);
    }
}

// Amplitude (eq. 4) and phase (eq. 5) containment over a parameter sweep.
class Eq45Property
    : public ::testing::TestWithParam<std::tuple<double, std::size_t, std::size_t, double>> {};

TEST_P(Eq45Property, IntervalsContainTruth) {
    const auto [amplitude, k, periods, phase] = GetParam();
    signature_extractor extractor(sd::modulator_params::ideal(), 13);

    acquisition_settings settings;
    settings.harmonic_k = k;
    settings.periods = periods;
    settings.offset = offset_mode::none;
    const auto sig = extractor.acquire(sine_source(amplitude, k, phase), settings);

    const auto amp = eval::estimate_amplitude(sig);
    EXPECT_TRUE(amp.bounds_volts.contains(amplitude))
        << "A=" << amplitude << " k=" << k << " M=" << periods << " got ["
        << amp.bounds_volts.lo() << ", " << amp.bounds_volts.hi() << "]";

    // Phase truth: x = A sin(k w0 n + phase) -> reported phase is `phase`
    // (sin-reference, exact constants).
    const auto ph = eval::estimate_phase(sig);
    if (ph.has_value()) {
        const double truth = wrap_phase(phase);
        const double delta = wrap_phase(truth - ph->radians);
        EXPECT_LE(std::abs(delta), ph->bounds_radians.radius() + 2e-2)
            << "A=" << amplitude << " k=" << k << " M=" << periods;
    } else {
        // Phase may only be undetermined when the box reaches the origin,
        // i.e. tiny amplitudes.
        EXPECT_LT(amplitude * static_cast<double>(periods) * kN, 3000.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AmplitudeHarmonicPeriodPhase, Eq45Property,
    ::testing::Combine(::testing::Values(0.002, 0.02, 0.2, 0.6),
                       ::testing::Values(std::size_t{1}, std::size_t{2}, std::size_t{3},
                                         std::size_t{4}, std::size_t{6}),
                       ::testing::Values(std::size_t{20}, std::size_t{200}),
                       ::testing::Values(0.0, 0.7, 2.5, -1.3)));

TEST(Estimator, PaperConstantsCloseToExact) {
    // eq. (4) prints the continuous-time |c1| = 2/pi; the estimator divides
    // by the sampled square wave's exact |c1|.  At N = 96 the two differ by
    // ~0.018 %, so an amplitude read with 2/pi moves by less than 4e-4.
    const double exact = std::abs(eval::demod_reference(1).c1());
    EXPECT_NEAR(exact, 2.0 / pi, 4e-4 * (2.0 / pi));
}

TEST(Estimator, AmplitudeErrorShrinksWithMn) {
    signature_extractor extractor(sd::modulator_params::ideal(), 19);
    const double amplitude = 0.2;
    double previous_width = 1e9;
    for (std::size_t periods : {20UL, 100UL, 500UL}) {
        acquisition_settings settings;
        settings.harmonic_k = 1;
        settings.periods = periods;
        settings.offset = offset_mode::none;
        const auto sig = extractor.acquire(sine_source(amplitude, 1, 1.0), settings);
        const auto amp = eval::estimate_amplitude(sig);
        EXPECT_LT(amp.bounds_volts.width(), previous_width);
        previous_width = amp.bounds_volts.width();
    }
    // eq. (4): width ~ vref * 2*sqrt(2)*eps / (MN |c1|) ~ 2.6e-4 V at M=500.
    EXPECT_LT(previous_width, 3e-4);
}

TEST(Estimator, ThdComposesHarmonicsWithBounds) {
    std::vector<eval::amplitude_measurement> harmonics(3);
    harmonics[0].volts = 0.2;
    harmonics[0].bounds_volts = interval(0.199, 0.201);
    harmonics[1].volts = 0.02;
    harmonics[1].bounds_volts = interval(0.0199, 0.0201);
    harmonics[2].volts = 0.002;
    harmonics[2].bounds_volts = interval(0.0019, 0.0021);
    const auto thd = eval::compute_thd(harmonics);
    const double truth = 20.0 * std::log10(std::hypot(0.02, 0.002) / 0.2);
    EXPECT_TRUE(thd.bounds_db.contains(truth));
    EXPECT_NEAR(thd.db, truth, 0.05);
}

TEST(Estimator, RejectsWrongHarmonicKind) {
    eval::signature_result sig;
    sig.harmonic_k = 1;
    sig.total_samples = 96;
    EXPECT_THROW((void)eval::estimate_dc(sig), precondition_error);
    sig.harmonic_k = 0;
    EXPECT_THROW((void)eval::estimate_amplitude(sig), precondition_error);
}

} // namespace
