// The eval layer's modulator-bank counters, read from the telemetry
// registry: eval.noise.lanes counts the noisy lanes of every bank it runs,
// eval.noise.streams the distinct noise streams those lanes draw, and
// eval.modulator.clips the banks' integrator clip events.  A screening lot
// starts every die's evaluator from one seed, so each acquisition bank
// draws one stream; a dictionary seeds every item apart, so every noisy
// lane draws its own.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/screening.hpp"
#include "core/sweep_engine.hpp"
#include "diag/trajectory_builder.hpp"
#include "dut/filters.hpp"
#include "telemetry/metrics.hpp"

namespace {

using namespace bistna;

core::analyzer_settings lot_settings(const sd::modulator_params& modulator) {
    core::analyzer_settings settings;
    settings.evaluator.modulator = modulator;
    settings.evaluator.offset = eval::offset_mode::calibrated;
    settings.evaluator.calibration_periods = 256; // keep the test fast
    settings.periods = 64;
    return settings;
}

/// The eval.modulate spans of a snapshot: one per batched acquisition, each
/// running an I bank and a Q bank over `lanes` lanes.
struct acquisitions {
    std::uint64_t calls = 0;
    std::uint64_t lanes = 0;
};

acquisitions count_acquisitions(const telemetry::telemetry_snapshot& snapshot) {
    acquisitions out;
    for (const auto& span : snapshot.spans) {
        if (span.name != "eval.modulate") {
            continue;
        }
        ++out.calls;
        for (const auto& [key, value] : span.args) {
            if (key == "lanes") {
                out.lanes += static_cast<std::uint64_t>(value);
            }
        }
    }
    return out;
}

/// Screen `dice` dice of the paper DUT on one thread in groups of `lanes`.
telemetry::telemetry_snapshot screen_lot(const sd::modulator_params& modulator,
                                         std::size_t dice, std::size_t lanes) {
    const core::board_factory factory = [](std::uint64_t seed) {
        core::demonstrator_board board(gen::generator_params::ideal(),
                                       dut::make_paper_dut(0.02, seed));
        board.set_amplitude(millivolt(150.0));
        return board;
    };
    core::sweep_engine_options options;
    options.threads = 1;
    options.batch_lanes = lanes;
    telemetry::metric_registry registry;
    {
        telemetry::registry_scope scope(registry);
        core::sweep_engine engine(factory, lot_settings(modulator), options);
        (void)engine.submit_screening(core::spec_mask::paper_lowpass(), dice, 1).results();
    }
    return registry.snapshot();
}

TEST(ModulatorCounters, CmosLotDrawsOneStreamPerBank) {
    const auto snapshot = screen_lot(sd::modulator_params::cmos035(), 12, 8);
    const auto acquired = count_acquisitions(snapshot);
    const std::uint64_t calibrating = snapshot.counter("eval.calibration.runs");
    ASSERT_GT(acquired.calls, 0u);
    EXPECT_EQ(calibrating, 1u) << "one lot-wide key";
    // Two banks per acquisition, one stream each; a calibrating lane's two
    // channels draw two streams of their own.
    EXPECT_EQ(snapshot.counter("eval.noise.streams"), 2 * acquired.calls + 2 * calibrating);
    EXPECT_EQ(snapshot.counter("eval.noise.lanes"), 2 * acquired.lanes + 2 * calibrating);
}

TEST(ModulatorCounters, NoisyDictionaryDrawsAStreamPerLane) {
    auto settings = lot_settings(sd::modulator_params::cmos035());
    settings.periods = 48;
    settings.settle_periods = 16;
    diag::trajectory_build_options build;
    build.grid_points = 3;
    build.threads = 1;
    build.batch_lanes = 4;
    const std::vector<diag::fault_spec> faults = {
        {diag::fault_kind::biquad_cap_drift, -0.2, 0.2, "relative"},
        {diag::fault_kind::integrator_leak, 0.0, 0.02, "leak"},
    };
    telemetry::metric_registry registry;
    {
        telemetry::registry_scope scope(registry);
        (void)diag::build_dictionary(
            diag::die_design{}, settings,
            diag::signature_space::from_mask(core::spec_mask::paper_lowpass()), faults, build);
    }
    const auto snapshot = registry.snapshot();
    const std::uint64_t lanes = snapshot.counter("eval.noise.lanes");
    EXPECT_GT(lanes, 0u);
    EXPECT_EQ(snapshot.counter("eval.noise.streams"), lanes) << "per-item seeds";
}

TEST(ModulatorCounters, IdealLotCountsNothing) {
    const auto snapshot = screen_lot(sd::modulator_params::ideal(), 6, 4);
    ASSERT_GT(count_acquisitions(snapshot).calls, 0u);
    EXPECT_GT(snapshot.counter("eval.calibration.runs"), 0u);
    EXPECT_EQ(snapshot.counter("eval.noise.lanes"), 0u);
    EXPECT_EQ(snapshot.counter("eval.noise.streams"), 0u);
    EXPECT_EQ(snapshot.counter("eval.modulator.clips"), 0u);
}

TEST(ModulatorCounters, ClippingModulatorCountsClips) {
    auto clipping = sd::modulator_params::ideal();
    clipping.integrator_swing = 0.2;
    const auto snapshot = screen_lot(clipping, 6, 4);
    EXPECT_GT(snapshot.counter("eval.modulator.clips"), 0u);
    EXPECT_EQ(snapshot.counter("eval.noise.lanes"), 0u);
}

} // namespace
