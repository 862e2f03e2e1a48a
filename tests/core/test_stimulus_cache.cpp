// Stimulus-record cache: render-once semantics, key correctness
// (amplitude / settle / design changes invalidate), bit-identity of cached
// renders and of the engine's cached sweeps and lots with the scalar
// analyzer on cache-less boards, and thread safety of concurrent lookups.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/board.hpp"
#include "core/screening.hpp"
#include "core/stimulus_cache.hpp"
#include "core/sweep.hpp"
#include "core/sweep_engine.hpp"
#include "dut/filters.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/snapshot.hpp"

namespace {

using namespace bistna;
using core::demonstrator_board;
using core::signal_path;
using core::stimulus_cache;
using core::stimulus_key;

demonstrator_board make_board(gen::generator_params params = gen::generator_params::ideal()) {
    demonstrator_board board(params, dut::make_paper_dut(0.01, 7));
    board.set_amplitude(millivolt(150.0));
    return board;
}

stimulus_cache::record make_record(double value, std::size_t length = 4) {
    return stimulus_cache::record(length, value);
}

TEST(StimulusCache, RendersOnceThenHits) {
    telemetry::metric_registry registry;
    telemetry::registry_scope metering(registry);
    stimulus_cache cache;
    stimulus_key key{1, 2, 3, 4};
    std::size_t renders = 0;
    const auto render = [&] {
        ++renders;
        return make_record(1.5);
    };
    const auto first = cache.get_or_render(key, render);
    const auto second = cache.get_or_render(key, render);
    EXPECT_EQ(renders, 1u);
    EXPECT_EQ(first.get(), second.get()); // literally the same record
    const auto snapshot = registry.snapshot();
    EXPECT_EQ(snapshot.counter("engine.stimulus.misses"), 1u);
    EXPECT_EQ(snapshot.counter("engine.stimulus.hits"), 1u);
    EXPECT_EQ(cache.size(), 1u);
}

TEST(StimulusCache, DistinctKeysRenderSeparately) {
    telemetry::metric_registry registry;
    telemetry::registry_scope metering(registry);
    stimulus_cache cache;
    std::size_t renders = 0;
    const auto render = [&] {
        ++renders;
        return make_record(static_cast<double>(renders));
    };
    (void)cache.get_or_render(stimulus_key{1, 0, 0, 0}, render);
    (void)cache.get_or_render(stimulus_key{2, 0, 0, 0}, render);
    EXPECT_EQ(renders, 2u);
    const auto snapshot = registry.snapshot();
    EXPECT_EQ(snapshot.counter("engine.stimulus.misses"), 2u);
    EXPECT_EQ(snapshot.counter("engine.stimulus.hits"), 0u);
}

TEST(StimulusCache, EvictsOldestBeyondCapacity) {
    telemetry::metric_registry registry;
    telemetry::registry_scope metering(registry);
    stimulus_cache cache(2);
    std::size_t renders = 0;
    const auto render = [&] {
        ++renders;
        return make_record(0.0);
    };
    (void)cache.get_or_render(stimulus_key{1, 0, 0, 0}, render);
    (void)cache.get_or_render(stimulus_key{2, 0, 0, 0}, render);
    (void)cache.get_or_render(stimulus_key{3, 0, 0, 0}, render); // evicts key 1
    EXPECT_EQ(registry.snapshot().counter("engine.stimulus.evictions"), 1u);
    EXPECT_EQ(cache.size(), 2u);
    (void)cache.get_or_render(stimulus_key{1, 0, 0, 0}, render); // re-render
    EXPECT_EQ(renders, 4u);
}

TEST(StimulusCache, RenderFailureForgetsEntrySoRetrySucceeds) {
    stimulus_cache cache;
    stimulus_key key{9, 0, 0, 0};
    EXPECT_THROW((void)cache.get_or_render(
                     key, []() -> stimulus_cache::record {
                         throw configuration_error("render exploded");
                     }),
                 configuration_error);
    EXPECT_EQ(cache.size(), 0u);
    const auto record = cache.get_or_render(key, [] { return make_record(2.0); });
    EXPECT_EQ(record->front(), 2.0);
}

TEST(StimulusCache, ConcurrentSameKeyRendersExactlyOnce) {
    stimulus_cache cache;
    stimulus_key key{5, 0, 0, 0};
    std::atomic<int> renders{0};
    const auto render = [&] {
        renders.fetch_add(1);
        return make_record(3.25, 1024);
    };
    std::vector<std::thread> workers;
    std::vector<stimulus_cache::record_ptr> results(8);
    for (std::size_t t = 0; t < results.size(); ++t) {
        workers.emplace_back([&, t] { results[t] = cache.get_or_render(key, render); });
    }
    for (auto& worker : workers) {
        worker.join();
    }
    EXPECT_EQ(renders.load(), 1);
    for (const auto& result : results) {
        ASSERT_NE(result, nullptr);
        EXPECT_EQ(result.get(), results.front().get());
    }
}

TEST(StimulusCache, BoardKeyChangesWithAmplitudeAndSettleAndPeriodsAndDesign) {
    auto board = make_board();
    const auto base = board.stimulus_cache_key(200, 32);
    EXPECT_EQ(base, board.stimulus_cache_key(200, 32)); // stable

    board.set_amplitude(millivolt(151.0));
    EXPECT_NE(board.stimulus_cache_key(200, 32), base) << "amplitude must invalidate";
    board.set_amplitude(millivolt(150.0));
    EXPECT_EQ(board.stimulus_cache_key(200, 32), base);

    EXPECT_NE(board.stimulus_cache_key(200, 33), base) << "settle must invalidate";
    EXPECT_NE(board.stimulus_cache_key(201, 32), base) << "periods must invalidate";

    auto params = gen::generator_params::ideal();
    params.seed = 2; // a different die of the same design
    auto other = demonstrator_board(params, dut::make_paper_dut(0.01, 7));
    other.set_amplitude(millivolt(150.0));
    // Ideal process draws nothing, but the fingerprint still covers the seed.
    EXPECT_NE(other.stimulus_cache_key(200, 32), base) << "design seed must invalidate";
}

TEST(StimulusCache, CachedRenderBitIdenticalToUncached) {
    const auto tb = sim::timebase::for_wave_frequency(kilohertz(2.0));
    for (const bool ideal : {true, false}) {
        telemetry::metric_registry registry;
        telemetry::registry_scope metering(registry);
        auto params = ideal ? gen::generator_params::ideal() : gen::generator_params{};
        auto uncached_board = make_board(params);
        auto cached_board = make_board(params);
        cached_board.set_stimulus_cache(std::make_shared<stimulus_cache>());

        for (const auto path : {signal_path::calibration, signal_path::through_dut}) {
            const auto expected = uncached_board.render(tb, 8, path, 4);
            const auto first = cached_board.render(tb, 8, path, 4); // miss or reuse
            const auto second = cached_board.render(tb, 8, path, 4); // guaranteed hit
            ASSERT_EQ(expected.size(), first.size());
            for (std::size_t i = 0; i < expected.size(); ++i) {
                ASSERT_EQ(expected[i], first[i]) << "ideal=" << ideal << " sample " << i;
                ASSERT_EQ(expected[i], second[i]) << "ideal=" << ideal << " sample " << i;
            }
        }
        const auto snapshot = registry.snapshot();
        // calibration + DUT paths share one staircase
        EXPECT_EQ(snapshot.counter("engine.stimulus.misses"), 1u);
        EXPECT_EQ(snapshot.counter("engine.stimulus.hits"), 3u);
    }
}

TEST(StimulusCache, RenderStagesComposeToRender) {
    auto board = make_board(gen::generator_params{}); // full non-ideal defaults
    const auto tb = sim::timebase::for_wave_frequency(kilohertz(1.0));
    const auto staircase = board.render_stimulus(8, 4);
    ASSERT_EQ(staircase.size(), tb.samples_for_periods(12));
    // The staircase holds each generator value for 6 f_eva samples.
    for (std::size_t n = 0; n < staircase.size(); n += 6) {
        for (std::size_t j = 1; j < 6 && n + j < staircase.size(); ++j) {
            ASSERT_EQ(staircase[n], staircase[n + j]) << "hold broken at " << n + j;
        }
    }
    for (const auto path : {signal_path::calibration, signal_path::through_dut}) {
        const auto composed = board.render_from_stimulus(staircase, tb, 8, path, 4);
        const auto direct = board.render(tb, 8, path, 4);
        ASSERT_EQ(composed.size(), direct.size());
        for (std::size_t i = 0; i < composed.size(); ++i) {
            ASSERT_EQ(composed[i], direct[i]);
        }
    }
}

TEST(StimulusCache, RenderFromStimulusRejectsWrongLength) {
    auto board = make_board();
    const auto tb = sim::timebase::for_wave_frequency(kilohertz(1.0));
    const auto staircase = board.render_stimulus(8, 4);
    EXPECT_THROW(
        (void)board.render_from_stimulus(staircase, tb, 8, signal_path::calibration, 5),
        precondition_error);
}

core::board_factory paper_factory() {
    return [](std::uint64_t seed) {
        demonstrator_board board(gen::generator_params::ideal(),
                                 dut::make_paper_dut(0.01, seed));
        board.set_amplitude(millivolt(150.0));
        return board;
    };
}

core::analyzer_settings fast_settings() {
    core::analyzer_settings settings;
    settings.evaluator.modulator = sd::modulator_params::ideal();
    settings.evaluator.offset = eval::offset_mode::none;
    settings.periods = 50;
    settings.settle_periods = 16;
    return settings;
}

void expect_bit_identical(const std::vector<core::frequency_point>& a,
                          const std::vector<core::frequency_point>& b) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].f_wave.value, b[i].f_wave.value) << "point " << i;
        EXPECT_EQ(a[i].gain_db, b[i].gain_db) << "point " << i;
        EXPECT_EQ(a[i].gain_db_bounds, b[i].gain_db_bounds) << "point " << i;
        EXPECT_EQ(a[i].phase_deg, b[i].phase_deg) << "point " << i;
        EXPECT_EQ(a[i].phase_deg_bounds, b[i].phase_deg_bounds) << "point " << i;
    }
}

TEST(StimulusCache, SweepBitIdenticalWithAndWithoutCache) {
    const auto frequencies = core::log_spaced(hertz{200.0}, kilohertz(4.0), 6);

    core::sweep_engine_options options;
    options.threads = 2;
    telemetry::metric_registry registry;
    core::sweep_report with_cache;
    {
        telemetry::registry_scope metering(registry);
        core::sweep_engine cached(paper_factory(), fast_settings(), options);
        with_cache = cached.run(frequencies);
    }

    // The scalar analyzer on fresh boards, which render every staircase
    // themselves, seeded like the engine's calibration and points.
    auto calibration_board = paper_factory()(1);
    auto calibration_settings = fast_settings();
    calibration_settings.evaluator.seed = core::sweep_item_seed(core::bode_seed_root, 0);
    const auto calibration =
        core::network_analyzer(calibration_board, calibration_settings).calibrate();
    std::vector<core::frequency_point> without_cache;
    for (std::size_t i = 0; i < frequencies.size(); ++i) {
        auto board = paper_factory()(1);
        auto settings = fast_settings();
        settings.evaluator.seed = core::sweep_item_seed(core::bode_seed_root, i + 1);
        core::network_analyzer analyzer(board, settings);
        analyzer.set_calibration(calibration);
        without_cache.push_back(analyzer.measure_point(frequencies[i]));
    }
    expect_bit_identical(with_cache.points, without_cache);

    // One staircase serves the shared calibration and every point.
    const auto snapshot = registry.snapshot();
    EXPECT_EQ(snapshot.counter("engine.stimulus.misses"), 1u);
    EXPECT_EQ(snapshot.counter("engine.stimulus.hits"), frequencies.size());
}

TEST(StimulusCache, CachedSweepBitIdenticalAcrossThreadCounts) {
    const auto frequencies = core::log_spaced(hertz{200.0}, kilohertz(4.0), 6);
    std::vector<core::sweep_report> reports;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        core::sweep_engine_options options;
        options.threads = threads;
        core::sweep_engine engine(paper_factory(), fast_settings(), options);
        reports.push_back(engine.run(frequencies));
    }
    expect_bit_identical(reports[0].points, reports[1].points);
}

TEST(StimulusCache, ScreenLotUnchangedByCache) {
    const auto mask = core::spec_mask::paper_lowpass();
    const std::size_t dice = 4;

    core::sweep_engine_options options;
    options.threads = 2;
    telemetry::metric_registry registry;
    std::vector<core::screening_report> with_cache;
    {
        telemetry::registry_scope metering(registry);
        core::sweep_engine cached(paper_factory(), fast_settings(), options);
        with_cache = cached.submit_screening(mask, dice, /*first_seed=*/3).results();
    }

    ASSERT_EQ(with_cache.size(), dice);
    for (std::size_t die = 0; die < dice; ++die) {
        // core::screen on a fresh, cache-less board per die.
        auto board = paper_factory()(3 + die);
        core::network_analyzer analyzer(board, fast_settings());
        const auto without_cache = core::screen(analyzer, mask);
        EXPECT_EQ(with_cache[die].passed, without_cache.passed);
        EXPECT_EQ(with_cache[die].stimulus_volts, without_cache.stimulus_volts);
        ASSERT_EQ(with_cache[die].limits.size(), without_cache.limits.size());
        for (std::size_t i = 0; i < without_cache.limits.size(); ++i) {
            EXPECT_EQ(with_cache[die].limits[i].measured_db,
                      without_cache.limits[i].measured_db);
        }
    }
    // All dice share the same generator design here, so the whole lot needs
    // exactly one staircase render.
    const auto snapshot = registry.snapshot();
    EXPECT_EQ(snapshot.counter("engine.stimulus.misses"), 1u);
    EXPECT_GT(snapshot.counter("engine.stimulus.hits"), 0u);
}

// A distortion program's stages read one staircase per die: the THD
// stage's longer render starts with the shorter one the calibration and
// the mask points need, so a one-design lot still renders once.
TEST(StimulusCache, DistortionLotRendersOneStaircase) {
    const auto mask = core::spec_mask::paper_lowpass();
    const std::size_t dice = 4;
    auto settings = fast_settings();
    settings.distortion_periods = 2 * settings.periods;
    core::screening_options screening;
    screening.measure_distortion = true;

    core::sweep_engine_options options;
    options.threads = 2;
    options.batch_lanes = 2;
    telemetry::metric_registry registry;
    std::vector<core::screening_report> with_cache;
    {
        telemetry::registry_scope metering(registry);
        core::sweep_engine cached(paper_factory(), settings, options);
        with_cache = cached.submit_screening(mask, dice, /*first_seed=*/3, screening).results();
    }

    ASSERT_EQ(with_cache.size(), dice);
    for (std::size_t die = 0; die < dice; ++die) {
        auto board = paper_factory()(3 + die);
        core::network_analyzer analyzer(board, settings);
        const auto without_cache = core::screen(analyzer, mask, screening);
        ASSERT_TRUE(without_cache.distortion_measured) << "die " << die;
        EXPECT_EQ(with_cache[die].stimulus_volts, without_cache.stimulus_volts);
        EXPECT_EQ(with_cache[die].thd_db, without_cache.thd_db) << "die " << die;
        ASSERT_EQ(with_cache[die].limits.size(), without_cache.limits.size());
        for (std::size_t i = 0; i < without_cache.limits.size(); ++i) {
            EXPECT_EQ(with_cache[die].limits[i].measured_db,
                      without_cache.limits[i].measured_db);
        }
    }
    EXPECT_EQ(registry.snapshot().counter("engine.stimulus.misses"), 1u);
}

} // namespace
