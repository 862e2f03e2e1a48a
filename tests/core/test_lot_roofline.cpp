// The lane-major executor end to end: every lane group must be
// bit-identical to the scalar core::screen, with or without a telemetry
// registry attached, and a steady-state lot loop must stop touching the
// heap for anything sizeable after its first pass (stimulus cache +
// calibration share) and never grow its worker arena again (arena reuse).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/arena.hpp"
#include "core/screening.hpp"
#include "core/sweep_engine.hpp"
#include "dut/filters.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/snapshot.hpp"

// --- Passive large-allocation counter (this TU only defines it once for
// the whole test binary; it never changes allocation behaviour) -----------
namespace {
std::atomic<std::uint64_t> g_large_allocations{0};
constexpr std::size_t kLargeAllocationBytes = 64 * 1024;
} // namespace

void* operator new(std::size_t count) {
    if (count >= kLargeAllocationBytes) {
        g_large_allocations.fetch_add(1, std::memory_order_relaxed);
    }
    if (void* p = std::malloc(count == 0 ? 1 : count)) {
        return p;
    }
    throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace {

using namespace bistna;
using core::analyzer_settings;
using core::screening_options;
using core::screening_report;
using core::spec_mask;
using core::sweep_engine;
using core::sweep_engine_options;

analyzer_settings lot_settings() {
    analyzer_settings settings;
    settings.evaluator.modulator = sd::modulator_params::cmos035();
    settings.evaluator.offset = eval::offset_mode::calibrated;
    settings.evaluator.calibration_periods = 128; // grounded run > 64 KiB buffers
    settings.periods = 16;
    settings.settle_periods = 4;
    settings.distortion_periods = 32;
    return settings;
}

core::board_factory make_factory(double sigma) {
    return [sigma](std::uint64_t seed) {
        core::demonstrator_board board(gen::generator_params::ideal(),
                                       dut::make_paper_dut(sigma, seed));
        board.set_amplitude(millivolt(150.0));
        return board;
    };
}

bool same_double(double a, double b) {
    return (a != a && b != b) || a == b; // NaN-tolerant exact compare
}

void expect_reports_identical(const std::vector<screening_report>& a,
                              const std::vector<screening_report>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t die = 0; die < a.size(); ++die) {
        EXPECT_EQ(a[die].self_test_passed, b[die].self_test_passed) << "die " << die;
        EXPECT_EQ(a[die].stimulus_volts, b[die].stimulus_volts) << "die " << die;
        EXPECT_EQ(a[die].stimulus_phase_deg, b[die].stimulus_phase_deg) << "die " << die;
        EXPECT_EQ(a[die].offset_rate, b[die].offset_rate) << "die " << die;
        EXPECT_EQ(a[die].passed, b[die].passed) << "die " << die;
        EXPECT_EQ(a[die].distortion_measured, b[die].distortion_measured) << "die " << die;
        EXPECT_TRUE(same_double(a[die].thd_db, b[die].thd_db)) << "die " << die;
        ASSERT_EQ(a[die].limits.size(), b[die].limits.size()) << "die " << die;
        for (std::size_t i = 0; i < a[die].limits.size(); ++i) {
            EXPECT_EQ(a[die].limits[i].measured_db, b[die].limits[i].measured_db)
                << "die " << die << " limit " << i;
            EXPECT_EQ(a[die].limits[i].phase_deg, b[die].limits[i].phase_deg)
                << "die " << die << " limit " << i;
            EXPECT_EQ(a[die].limits[i].passed, b[die].limits[i].passed)
                << "die " << die << " limit " << i;
        }
    }
}

std::vector<screening_report> screen_lanes(std::size_t lanes, std::size_t dice,
                                           const screening_options& screening) {
    sweep_engine_options options;
    options.threads = 2;
    options.batch_lanes = lanes;
    sweep_engine engine(make_factory(0.02), lot_settings(), options);
    return engine.submit_screening(spec_mask::paper_lowpass(), dice, 1, screening).results();
}

/// The oracle: core::screen on a fresh scalar analyzer per die.
std::vector<screening_report> scalar_screen(std::size_t dice,
                                            const screening_options& screening) {
    std::vector<screening_report> reports;
    for (std::uint64_t seed = 1; seed <= dice; ++seed) {
        auto board = make_factory(0.02)(seed);
        core::network_analyzer analyzer(board, lot_settings());
        reports.push_back(core::screen(analyzer, spec_mask::paper_lowpass(), screening));
    }
    return reports;
}

TEST(LotRoofline, LaneMajorPipelineBitIdenticalToReference) {
    screening_options screening;
    screening.measure_distortion = true;
    screening.continue_after_self_test_failure = true;
    // The executor must match the scalar oracle die for die at several lane
    // counts (including ones that don't divide the dice evenly).
    const auto reference = scalar_screen(13, screening);
    for (std::size_t lanes : {1u, 4u, 8u}) {
        expect_reports_identical(reference, screen_lanes(lanes, 13, screening));
    }

    // Attaching a registry records spans and counters around the same
    // kernels; it must not move a single measured bit.
    telemetry::metric_registry registry;
    {
        telemetry::registry_scope scope(registry);
        expect_reports_identical(reference, screen_lanes(8, 13, screening));
    }
    // ...and the instrumentation must be live, not compiled out.
    const auto snapshot = registry.snapshot();
    EXPECT_TRUE(std::any_of(snapshot.spans.begin(), snapshot.spans.end(),
                            [](const telemetry::span_value& span) {
                                return span.name == "engine.calibrate";
                            }))
        << "no engine.calibrate span recorded";
    EXPECT_GT(snapshot.counter("engine.stimulus.hits"), 0u);
}

TEST(LotRoofline, SecondLotPassAllocatesNoLargeBlocks) {
    sweep_engine_options options;
    options.threads = 1; // one worker -> one arena, deterministic reuse
    options.batch_lanes = 8;
    // Attached before the first lot, so its counts cover both passes; each
    // thread's telemetry shard is allocated at its first record, which
    // falls in the first pass.
    telemetry::metric_registry registry;
    telemetry::registry_scope metering(registry);
    sweep_engine engine(make_factory(0.02), lot_settings(), options);

    screening_options screening;
    screening.measure_distortion = true;

    // First pass warms every reuse path: arena growth, staircase cache,
    // calibration share.
    (void)engine.submit_screening(spec_mask::paper_lowpass(), 24, 1, screening).results();

    // Arena blocks are mapped from the kernel, not operator new, so the
    // hook sees only the caches; the block count covers the arena.
    const std::uint64_t before = g_large_allocations.load(std::memory_order_relaxed);
    const std::uint64_t blocks_before = arena::total_blocks_mapped();
    const auto second =
        engine.submit_screening(spec_mask::paper_lowpass(), 24, 1, screening).results();
    const std::uint64_t after = g_large_allocations.load(std::memory_order_relaxed);
    const std::uint64_t blocks_after = arena::total_blocks_mapped();

    EXPECT_EQ(second.size(), 24u);
    EXPECT_EQ(after - before, 0u)
        << "steady-state lot pass performed " << (after - before)
        << " allocations >= 64 KiB; the cache reuse paths regressed";
    EXPECT_EQ(blocks_after - blocks_before, 0u)
        << "steady-state lot pass mapped " << (blocks_after - blocks_before)
        << " arena blocks; the worker arena reuse regressed";

    const auto snapshot = registry.snapshot();
    EXPECT_GT(snapshot.counter("engine.stimulus.hits"), 0u);
    EXPECT_GT(snapshot.counter("eval.calibration.runs"), 0u);
}

} // namespace
