// The ref-[8] style analyzer: correct at moderate levels, floor-limited
// around -40 dBFS -- the comparison that motivates the paper's approach.
#include "common/error.hpp"
#include <gtest/gtest.h>

#include <cmath>

#include "baseline/bandpass_analyzer.hpp"
#include "common/math_util.hpp"

namespace {

using namespace bistna;
using baseline::bandpass_analyzer;
using baseline::bandpass_analyzer_params;

eval::sample_source tone_pair(double a1, double a3) {
    return [=](std::size_t n) {
        const double t = two_pi * static_cast<double>(n) / 96.0;
        return a1 * std::sin(t) + a3 * std::sin(3.0 * t + 0.5);
    };
}

TEST(BandpassAnalyzer, ReadsStrongToneAccurately) {
    bandpass_analyzer analyzer(bandpass_analyzer_params{});
    const auto m = analyzer.measure(tone_pair(0.5, 0.0), 1);
    EXPECT_NEAR(m.amplitude, 0.5, 0.03);
}

TEST(BandpassAnalyzer, SmallHarmonicMaskedByFundamentalLeakage) {
    // -60 dBc harmonic beside a full-scale fundamental: the filter's
    // leakage + detector floor dominate the true 0.5 mV value.
    bandpass_analyzer analyzer(bandpass_analyzer_params{});
    const auto m = analyzer.measure(tone_pair(0.5, 0.0005), 3);
    EXPECT_GT(m.amplitude, 0.002); // reads the floor, not the harmonic
}

TEST(BandpassAnalyzer, DynamicRangeIsAbout40Db) {
    // Find the smallest standalone tone the detector resolves within 3 dB.
    bandpass_analyzer_params params;
    bandpass_analyzer analyzer(params);
    double worst_resolved_dbfs = 0.0;
    for (double level_db = -20.0; level_db >= -70.0; level_db -= 10.0) {
        const double amplitude = std::pow(10.0, level_db / 20.0);
        const auto m = analyzer.measure(tone_pair(amplitude, 0.0), 1);
        const double error_db = std::abs(20.0 * std::log10(std::max(m.amplitude, 1e-9) /
                                                           amplitude));
        if (error_db < 3.0) {
            worst_resolved_dbfs = level_db;
        }
    }
    // Resolves around -40 dB but NOT -60 dB and below.
    EXPECT_LE(worst_resolved_dbfs, -30.0);
    EXPECT_GE(worst_resolved_dbfs, -55.0);
}

TEST(BandpassAnalyzer, Validation) {
    bandpass_analyzer analyzer(bandpass_analyzer_params{});
    EXPECT_THROW((void)analyzer.measure(tone_pair(0.1, 0.0), 0), precondition_error);
    EXPECT_THROW((void)analyzer.measure(tone_pair(0.1, 0.0), 50), precondition_error);
    bandpass_analyzer_params bad;
    bad.filter_q = 0.1;
    EXPECT_THROW(bandpass_analyzer a(bad), precondition_error);
}

} // namespace
