// Active-RC designs: nominal values hit the specs, tolerance draws move
// the cutoff the way 1 % components would.
#include "common/error.hpp"
#include <gtest/gtest.h>

#include <cmath>

#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "dut/filters.hpp"

namespace {

using namespace bistna;

TEST(Filters, Butterworth2HasMaximallyFlatShape) {
    const auto tf = dut::butterworth_lowpass2(1000.0);
    EXPECT_NEAR(tf.magnitude_db(10.0), 0.0, 1e-3);
    EXPECT_NEAR(tf.magnitude_db(1000.0), -3.0103, 2e-2);
    // -40 dB/decade asymptote.
    EXPECT_NEAR(tf.magnitude_db(10000.0) - tf.magnitude_db(100000.0), 40.0, 0.5);
}

TEST(Filters, SallenKeyNominalMatchesSpecs) {
    const double q = 1.0 / std::sqrt(2.0);
    const auto components = dut::design_sallen_key(1000.0, q);
    const auto tf = dut::sallen_key_lowpass(components);
    EXPECT_NEAR(tf.dc_gain(), 1.0, 1e-12);
    EXPECT_NEAR(tf.cutoff_frequency(10.0, 1e6), 1000.0, 2.0);
    // Matches the ideal Butterworth prototype across the band.
    const auto proto = dut::butterworth_lowpass2(1000.0);
    for (double f : {100.0, 500.0, 1000.0, 3000.0, 20000.0}) {
        EXPECT_NEAR(tf.magnitude_db(f), proto.magnitude_db(f), 0.05) << f;
    }
}

TEST(Filters, ToleranceDrawsSpreadCutoff) {
    const double q = 1.0 / std::sqrt(2.0);
    const auto nominal = dut::design_sallen_key(1000.0, q);
    rng generator(11);
    double min_fc = 1e9, max_fc = 0.0;
    for (int i = 0; i < 50; ++i) {
        const auto drawn = dut::perturb(nominal, 0.01, generator);
        const auto tf = dut::sallen_key_lowpass(drawn);
        const double fc = tf.cutoff_frequency(10.0, 1e6);
        min_fc = std::min(min_fc, fc);
        max_fc = std::max(max_fc, fc);
    }
    EXPECT_LT(min_fc, 1000.0);
    EXPECT_GT(max_fc, 1000.0);
    EXPECT_LT(max_fc - min_fc, 120.0); // ~1 % parts -> a few % fc spread
}

TEST(Filters, MfbLowpassGainAndOrder) {
    const auto components = dut::design_mfb(1000.0, 1.0 / std::sqrt(2.0), 2.0);
    const auto tf = dut::mfb_lowpass(components);
    EXPECT_NEAR(tf.dc_gain(), -2.0, 1e-9); // inverting stage
    EXPECT_NEAR(std::abs(tf.response(1000.0)), 2.0 / std::sqrt(2.0), 0.05);
}

TEST(Filters, PaperDutDescriptionAndResponse) {
    const auto dut_instance = dut::make_paper_dut(0.01, 7);
    EXPECT_NE(dut_instance->description().find("1 kHz"), std::string::npos);
    // Drawn instance should be within a few percent of the nominal 1 kHz.
    const double g100 = std::abs(dut_instance->ideal_response(100.0));
    const double g10k = std::abs(dut_instance->ideal_response(10000.0));
    EXPECT_NEAR(g100, 1.0, 0.02);
    EXPECT_LT(g10k, 0.02);
}

TEST(Filters, InvalidSpecsThrow) {
    EXPECT_THROW((void)dut::lowpass2(-1.0, 0.7), precondition_error);
    EXPECT_THROW((void)dut::lowpass2(1000.0, 0.0), precondition_error);
    EXPECT_THROW((void)dut::design_mfb(1000.0, 0.7, 0.0), precondition_error);
}

} // namespace
