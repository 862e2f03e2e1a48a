#include "common/error.hpp"
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ate/multitone.hpp"
#include "common/math_util.hpp"
#include "dsp/goertzel.hpp"

namespace {

using namespace bistna;

TEST(Multitone, Fig9StimulusComposition) {
    const auto stimulus = ate::multitone_source::fig9_stimulus();
    ASSERT_EQ(stimulus.tones().size(), 3u);
    EXPECT_DOUBLE_EQ(stimulus.tones()[0].amplitude, 0.2);
    EXPECT_DOUBLE_EQ(stimulus.tones()[1].amplitude, 0.02);
    EXPECT_DOUBLE_EQ(stimulus.tones()[2].amplitude, 0.002);

    // Coherent extraction of each tone from the generated record.
    std::vector<double> record(96 * 100);
    for (std::size_t n = 0; n < record.size(); ++n) {
        record[n] = stimulus.sample(n);
    }
    for (std::size_t k = 1; k <= 3; ++k) {
        const double amplitude =
            dsp::estimate_tone(record, static_cast<double>(k) / 96.0, 1.0).amplitude;
        EXPECT_NEAR(amplitude, stimulus.tones()[k - 1].amplitude, 1e-12) << "k=" << k;
    }
}

TEST(Multitone, DcOffsetIncluded) {
    ate::multitone_source source({ate::tone{1, 0.1, 0.0}}, 0.25);
    double mean = 0.0;
    const std::size_t n = 96 * 10;
    for (std::size_t i = 0; i < n; ++i) {
        mean += source.sample(i);
    }
    EXPECT_NEAR(mean / static_cast<double>(n), 0.25, 1e-12);
}

TEST(Multitone, PeriodicInN) {
    const auto stimulus = ate::multitone_source::fig9_stimulus();
    for (std::size_t n = 0; n < 96; ++n) {
        EXPECT_NEAR(stimulus.sample(n), stimulus.sample(n + 96), 1e-12);
    }
}

TEST(Multitone, NoiseIsSeededAndBounded) {
    ate::multitone_source a({ate::tone{1, 0.1, 0.0}});
    a.set_noise(1e-3, 42);
    ate::multitone_source b({ate::tone{1, 0.1, 0.0}});
    b.set_noise(1e-3, 42);
    for (std::size_t n = 0; n < 100; ++n) {
        EXPECT_DOUBLE_EQ(a.sample(n), b.sample(n));
    }
}

TEST(Multitone, RejectsAboveNyquist) {
    EXPECT_THROW(ate::multitone_source({ate::tone{48, 0.1, 0.0}}), precondition_error);
}

} // namespace
