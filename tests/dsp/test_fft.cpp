#include "common/error.hpp"
#include <gtest/gtest.h>

#include <cmath>

#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "dsp/fft.hpp"

namespace {

using namespace bistna;
using dsp::cplx;

TEST(Fft, MatchesReferenceDftOnRandomData) {
    rng generator(5);
    std::vector<cplx> data(256);
    for (auto& x : data) {
        x = cplx(generator.uniform(-1, 1), generator.uniform(-1, 1));
    }
    auto fast = data;
    dsp::fft_inplace(fast);
    const auto slow = dsp::dft_reference(data);
    for (std::size_t k = 0; k < data.size(); ++k) {
        EXPECT_NEAR(std::abs(fast[k] - slow[k]), 0.0, 1e-9) << "bin " << k;
    }
}

TEST(Fft, SingleToneLandsInOneBin) {
    const std::size_t n = 1024;
    std::vector<cplx> data(n);
    const std::size_t bin = 37;
    for (std::size_t i = 0; i < n; ++i) {
        data[i] = std::cos(two_pi * static_cast<double>(bin * i) / static_cast<double>(n));
    }
    dsp::fft_inplace(data);
    EXPECT_NEAR(std::abs(data[bin]), static_cast<double>(n) / 2.0, 1e-6);
    EXPECT_NEAR(std::abs(data[bin + 1]), 0.0, 1e-6);
}

TEST(Fft, ParsevalHolds) {
    rng generator(7);
    std::vector<cplx> data(512);
    double time_energy = 0.0;
    for (auto& x : data) {
        x = cplx(generator.uniform(-1, 1), 0.0);
        time_energy += std::norm(x);
    }
    auto spec = data;
    dsp::fft_inplace(spec);
    double freq_energy = 0.0;
    for (const auto& x : spec) {
        freq_energy += std::norm(x);
    }
    EXPECT_NEAR(freq_energy / static_cast<double>(data.size()), time_energy, 1e-9);
}

TEST(Fft, NonPowerOfTwoThrows) {
    std::vector<cplx> data(96);
    EXPECT_THROW(dsp::fft_inplace(data), precondition_error);
}

TEST(Rfft, HalfSpectrumOfRealSignal) {
    const std::size_t n = 256;
    std::vector<double> data(n);
    for (std::size_t i = 0; i < n; ++i) {
        data[i] = std::sin(two_pi * 10.0 * static_cast<double>(i) / static_cast<double>(n));
    }
    const auto bins = dsp::rfft(data);
    EXPECT_EQ(bins.size(), n / 2 + 1);
    EXPECT_NEAR(std::abs(bins[10]), static_cast<double>(n) / 2.0, 1e-9);
}

} // namespace
