#include <gtest/gtest.h>

#include <cmath>

#include "common/math_util.hpp"
#include "dsp/resample.hpp"
#include "dsp/spectrum.hpp"

namespace {

using namespace bistna;

TEST(Resample, ZohRepeatsSamples) {
    const auto out = dsp::zoh_upsample({1.0, 2.0, 3.0}, 3);
    const std::vector<double> expected = {1, 1, 1, 2, 2, 2, 3, 3, 3};
    ASSERT_EQ(out.size(), expected.size());
    for (std::size_t i = 0; i < out.size(); ++i) {
        EXPECT_DOUBLE_EQ(out[i], expected[i]);
    }
}

TEST(Resample, ZohUpsamplingExposesImages) {
    // DT sine at fs/16; ZOH x8 moves us to a grid where the images at
    // 15 f0 and 17 f0 appear with ~sinc attenuation -- the paper's
    // "continuous-time analysis of a sampled signal" effect (Fig. 8b).
    const std::size_t n = 2048;
    std::vector<double> dt(n);
    for (std::size_t i = 0; i < n; ++i) {
        dt[i] = std::sin(two_pi * static_cast<double>(i) / 16.0);
    }
    const std::size_t factor = 8;
    const auto ct = dsp::zoh_upsample(dt, factor);
    const double fs_ct = static_cast<double>(factor); // normalize fs_dt = 1
    const auto spec = dsp::compute_spectrum(ct, fs_ct, dsp::window_kind::blackman_harris);
    const double f0 = 1.0 / 16.0;
    const auto fund = dsp::measure_tone(spec, f0);
    const auto image = dsp::measure_tone(spec, 1.0 - f0); // 15 f0
    const double image_db = 20.0 * std::log10(image.amplitude / fund.amplitude);
    // Ideal ZOH image level: sinc(15/16)/sinc(1/16) = 1/15 -> -23.5 dB.
    EXPECT_NEAR(image_db, -23.5, 1.0);
}

} // namespace
