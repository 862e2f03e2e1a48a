// Square-wave demodulation reference: alignment rules, quadrature shift,
// exact Fourier coefficients.
#include "common/error.hpp"
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>

#include "common/math_util.hpp"
#include "eval/square_wave.hpp"

namespace {

using namespace bistna;
using eval::demod_reference;

TEST(SquareWave, AlignmentRule) {
    // N = 96: k with 96 mod 4k == 0.
    for (std::size_t k : {1UL, 2UL, 3UL, 4UL, 6UL, 8UL, 12UL, 24UL}) {
        EXPECT_TRUE(demod_reference::alignment_ok(k)) << "k=" << k;
    }
    for (std::size_t k : {5UL, 7UL, 9UL, 16UL, 48UL}) {
        EXPECT_FALSE(demod_reference::alignment_ok(k)) << "k=" << k;
    }
    EXPECT_TRUE(demod_reference::alignment_ok(0));
}

TEST(SquareWave, MisalignedConstructionThrows) {
    EXPECT_THROW(demod_reference(5), precondition_error);
}

TEST(SquareWave, PeriodAndHalfCycleBalance) {
    const demod_reference demod(3);
    EXPECT_EQ(demod.period(), 32u);
    int sum = 0;
    for (std::size_t n = 0; n < 96; ++n) {
        sum += demod.in_phase_sign(n);
    }
    EXPECT_EQ(sum, 0); // zero mean over full periods
}

TEST(SquareWave, QuadratureIsQuarterPeriodDelayed) {
    const demod_reference demod(2);
    const std::size_t quarter = demod.period() / 4;
    for (std::size_t n = 0; n < 192; ++n) {
        EXPECT_EQ(demod.quadrature_sign(n + quarter), demod.in_phase_sign(n)) << "n=" << n;
    }
}

TEST(SquareWave, FundamentalCoefficientApproachesTwoOverPi) {
    for (std::size_t k : {1UL, 2UL, 3UL}) {
        const demod_reference demod(k);
        const double p = static_cast<double>(demod.period());
        // Closed form: |c1| = 2 / (P sin(pi/P)).
        const double expected = 2.0 / (p * std::sin(pi / p));
        EXPECT_NEAR(std::abs(demod.c1()), expected, 1e-12) << "k=" << k;
        EXPECT_NEAR(std::abs(demod.c1()), 2.0 / pi, 0.01) << "k=" << k;
    }
}

// c1 comes from a table summed once per aligned k; it must be the very
// bits coefficient(1) sums for one reference.
TEST(SquareWave, TabulatedC1IsCoefficientOneBitForBit) {
    for (std::size_t k : {1UL, 2UL, 3UL, 4UL, 6UL, 8UL, 12UL, 24UL}) {
        const demod_reference demod(k);
        const std::complex<double> c1 = demod.c1();
        const std::complex<double> summed = demod.coefficient(1);
        EXPECT_EQ(std::bit_cast<std::uint64_t>(c1.real()),
                  std::bit_cast<std::uint64_t>(summed.real()))
            << "k=" << k;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(c1.imag()),
                  std::bit_cast<std::uint64_t>(summed.imag()))
            << "k=" << k;
    }
}

TEST(SquareWave, PhaseOfC1IsHalfSampleOffset) {
    const demod_reference demod(1);
    // arg(c1) = pi/P - pi/2 (derivation in square_wave.hpp).
    const double p = static_cast<double>(demod.period());
    EXPECT_NEAR(std::arg(demod.c1()), pi / p - half_pi, 1e-12);
}

TEST(SquareWave, EvenCoefficientsVanish) {
    const demod_reference demod(1);
    EXPECT_NEAR(std::abs(demod.coefficient(2)), 0.0, 1e-12);
    EXPECT_NEAR(std::abs(demod.coefficient(4)), 0.0, 1e-12);
}

TEST(SquareWave, ThirdCoefficientIsOneThirdScale) {
    const demod_reference demod(1);
    const double ratio = std::abs(demod.coefficient(3)) / std::abs(demod.c1());
    EXPECT_NEAR(ratio, 1.0 / 3.0, 0.01); // the harmonic-leakage weight
}

TEST(SquareWave, DcModeIsConstantPlusOne) {
    const demod_reference demod(0);
    for (std::size_t n = 0; n < 10; ++n) {
        EXPECT_EQ(demod.in_phase_sign(n), 1);
        EXPECT_EQ(demod.quadrature_sign(n), 1);
    }
    EXPECT_DOUBLE_EQ(std::abs(demod.c1()), 1.0);
}

} // namespace
