#include <gtest/gtest.h>

#include <cmath>

#include "common/statistics.hpp"
#include "sim/process.hpp"

namespace {

using namespace bistna;

TEST(Process, IdealParamsDrawNominals) {
    sim::process_sampler sampler(sim::process_params::ideal(), rng(8));
    EXPECT_DOUBLE_EQ(sampler.matched_capacitor(5.194), 5.194);
    EXPECT_DOUBLE_EQ(sampler.comparator_offset(), 0.0);
    EXPECT_DOUBLE_EQ(sampler.opamp_gain_db(72.0), 72.0);
}

TEST(Process, MismatchSigmaRespected) {
    auto params = sim::process_params::ideal();
    params.cap_mismatch_sigma = 1e-3;
    sim::process_sampler sampler(params, rng(8));
    running_stats stats;
    for (int i = 0; i < 20000; ++i) {
        stats.add(sampler.matched_capacitor(1.0) - 1.0);
    }
    EXPECT_NEAR(stats.stddev(), 1e-3, 5e-5);
    EXPECT_NEAR(stats.mean(), 0.0, 5e-5);
}

TEST(Process, CornersShiftOpampGain) {
    auto params = sim::process_params::ideal();
    params.process_corner = sim::corner::slow;
    sim::process_sampler slow(params, rng(8));
    params.process_corner = sim::corner::fast;
    sim::process_sampler fast(params, rng(8));
    EXPECT_LT(slow.opamp_gain_db(72.0), 72.0);
    EXPECT_GT(fast.opamp_gain_db(72.0), 72.0);
}

TEST(Process, MatchedCapacitorsVectorForm) {
    auto params = sim::process_params::cmos035();
    sim::process_sampler sampler(params, rng(9));
    const auto drawn = sampler.matched_capacitors({1.0, 2.0, 3.0});
    ASSERT_EQ(drawn.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_NEAR(drawn[i], static_cast<double>(i + 1), 0.01 * static_cast<double>(i + 1));
    }
}

} // namespace
