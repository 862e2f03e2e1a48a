#include "common/error.hpp"
#include <gtest/gtest.h>

#include <cmath>

#include "baseline/dft_analyzer.hpp"
#include "common/math_util.hpp"

namespace {

using namespace bistna;
using baseline::dft_analyzer;

TEST(DftAnalyzer, MeasuresCoherentHarmonic) {
    std::vector<double> record(96 * 64);
    for (std::size_t n = 0; n < record.size(); ++n) {
        record[n] = 0.25 * std::cos(two_pi * 2.0 * static_cast<double>(n) / 96.0 + 0.7);
    }
    dft_analyzer analyzer;
    const auto point = analyzer.measure(record, 2);
    EXPECT_NEAR(point.amplitude, 0.25, 1e-12);
    EXPECT_NEAR(point.phase_rad, 0.7, 1e-12);
}

TEST(DftAnalyzer, TransferBetweenRecords) {
    std::vector<double> in(96 * 32), out(96 * 32);
    for (std::size_t n = 0; n < in.size(); ++n) {
        const double t = two_pi * static_cast<double>(n) / 96.0;
        in[n] = 0.5 * std::cos(t);
        out[n] = 0.25 * std::cos(t - 0.9); // gain 0.5, lag 0.9 rad
    }
    dft_analyzer analyzer;
    const auto gp = analyzer.transfer(in, out, 1);
    EXPECT_NEAR(gp.gain, 0.5, 1e-12);
    EXPECT_NEAR(gp.gain_db, -6.0206, 1e-3);
    EXPECT_NEAR(gp.phase_rad, -0.9, 1e-12);
}

TEST(DftAnalyzer, NonIntegerPeriodsRejected) {
    dft_analyzer analyzer;
    std::vector<double> record(100); // not a multiple of 96
    EXPECT_THROW((void)analyzer.measure(record, 1), precondition_error);
}

TEST(DftAnalyzer, ZeroInputTransferRejected) {
    dft_analyzer analyzer;
    std::vector<double> zeros(96 * 4, 0.0);
    std::vector<double> out(96 * 4, 0.0);
    EXPECT_THROW((void)analyzer.transfer(zeros, out, 1), precondition_error);
}

} // namespace
