// Demonstrator-board wiring: staircase structure, calibration path,
// phase coherence across renders.
#include "common/error.hpp"
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "core/board.hpp"
#include "dsp/goertzel.hpp"
#include "dut/filters.hpp"

namespace {

using namespace bistna;
using core::demonstrator_board;
using core::signal_path;

demonstrator_board make_board(gen::generator_params params = gen::generator_params::ideal()) {
    return demonstrator_board(params, dut::make_paper_dut(0.0, 1));
}

TEST(Board, CalibrationPathIsStaircaseHeldSixSamples) {
    auto board = make_board();
    board.set_amplitude(millivolt(150.0));
    const auto tb = sim::timebase::for_wave_frequency(kilohertz(1.0));
    const auto record = board.render(tb, 4, signal_path::calibration);
    ASSERT_EQ(record.size(), 4u * 96u);
    for (std::size_t n = 0; n < record.size(); n += 6) {
        for (std::size_t j = 1; j < 6 && n + j < record.size(); ++j) {
            ASSERT_DOUBLE_EQ(record[n], record[n + j]) << "hold broken at " << n + j;
        }
    }
}

TEST(Board, CalibrationRecordHasProgrammedAmplitude) {
    auto board = make_board();
    board.set_amplitude(millivolt(150.0));
    const auto tb = sim::timebase::for_wave_frequency(kilohertz(1.0));
    const auto record = board.render(tb, 32, signal_path::calibration);
    const double amplitude = dsp::estimate_tone(record, 1.0 / 96.0, 1.0).amplitude;
    EXPECT_NEAR(amplitude, 0.3, 0.01); // 2 * 150 mV
}

TEST(Board, DutPathAppliesFilterGain) {
    auto board = make_board();
    board.set_amplitude(millivolt(150.0));
    // At f_wave = 2 kHz the 1 kHz Butterworth attenuates by ~ -12.3 dB.
    const auto tb = sim::timebase::for_wave_frequency(kilohertz(2.0));
    const auto cal = board.render(tb, 32, signal_path::calibration);
    const auto out = board.render(tb, 32, signal_path::through_dut);
    const double a_in = dsp::estimate_tone(cal, 1.0 / 96.0, 1.0).amplitude;
    const double a_out = dsp::estimate_tone(out, 1.0 / 96.0, 1.0).amplitude;
    const double expected = std::abs(board.dut().ideal_response(2000.0));
    EXPECT_NEAR(a_out / a_in, expected, 0.03 * expected + 0.01);
}

TEST(Board, RendersArePhaseCoherent) {
    auto board = make_board();
    board.set_amplitude(millivolt(100.0));
    const auto tb = sim::timebase::for_wave_frequency(kilohertz(1.0));
    const auto r1 = board.render(tb, 8, signal_path::calibration);
    const auto r2 = board.render(tb, 8, signal_path::calibration);
    for (std::size_t i = 0; i < r1.size(); ++i) {
        ASSERT_DOUBLE_EQ(r1[i], r2[i]) << "render not reproducible at " << i;
    }
}

// The sweep engine renders each staircase once, at its longest stage, and
// every shorter stage reads a prefix.  That is exact only while a render is
// causal: this fails if a render ever depends on its own length.
TEST(Board, LongerStaircaseStartsWithTheShorterOne) {
    auto cap_faulted = gen::generator_params{};
    cap_faulted.cap_fault_delta = 0.2;
    auto degraded = gen::generator_params{};
    degraded.opamp1 = degraded.opamp1.degraded(0.5);
    degraded.opamp2 = degraded.opamp2.degraded(0.5);
    for (const auto& params :
         {gen::generator_params::ideal(), gen::generator_params{}, cap_faulted, degraded}) {
        auto board = make_board(params);
        board.set_amplitude(millivolt(150.0));
        const auto longer = board.render_stimulus(400, 32);
        const auto shorter = board.render_stimulus(200, 32);
        ASSERT_EQ(longer.size(), (400u + 32u) * 96u);
        ASSERT_EQ(shorter.size(), (200u + 32u) * 96u);
        for (std::size_t n = 0; n < shorter.size(); ++n) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(longer[n]),
                      std::bit_cast<std::uint64_t>(shorter[n]))
                << "generator " << params.fingerprint() << ", sample " << n;
        }
    }
}

TEST(Board, SourceAdapterBoundsChecked) {
    auto board = make_board();
    const auto tb = sim::timebase::for_wave_frequency(kilohertz(1.0));
    auto record = board.render(tb, 2, signal_path::calibration);
    const auto source = demonstrator_board::as_source(std::move(record));
    (void)source(0);
    (void)source(2 * 96 - 1);
    EXPECT_THROW((void)source(2 * 96), precondition_error);
}

TEST(Board, RequiresDut) {
    EXPECT_THROW(demonstrator_board(gen::generator_params::ideal(), nullptr),
                 precondition_error);
}

} // namespace
