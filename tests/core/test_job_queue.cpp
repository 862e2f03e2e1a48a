// The asynchronous job queue: in-order streaming, the post-publish
// notifier, worker-exception capture, cooperative cancellation and pool
// sharing across concurrent jobs -- plus the contract everything
// rests on, that streamed items are bit-identical to results() slots at
// every {threads, batch_lanes} combination.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "core/job_queue.hpp"
#include "core/screening.hpp"
#include "core/sweep.hpp"
#include "core/sweep_engine.hpp"
#include "dut/filters.hpp"

namespace {

using namespace bistna;
using core::analyzer_settings;
using core::board_factory;
using core::job_handle;
using core::job_queue;
using core::job_state;
using core::spec_mask;
using core::sweep_engine;
using core::sweep_engine_options;

// --- Plain queue mechanics (synthetic integer jobs) ------------------------

int item_value(std::size_t index) { return static_cast<int>(index * index + 7); }

/// A synthetic job: item i evaluates to item_value(i), `group` items per
/// task.
job_handle<int> submit_squares(job_queue& queue, std::size_t items, std::size_t group) {
    return queue.submit<int>(items, group, [](std::size_t first, std::size_t count, int* out) {
        for (std::size_t l = 0; l < count; ++l) {
            out[l] = item_value(first + l);
        }
    });
}

/// A closed gate the test opens once: task bodies block on `open` until
/// `release()` runs.
struct gate {
    std::promise<void> promise;
    std::shared_future<void> open{promise.get_future()};
    void release() { promise.set_value(); }
};

TEST(JobQueue, StreamsEveryItemExactlyOnce) {
    job_queue queue(3);
    auto handle = submit_squares(queue, 17, 4);

    // The in-order cursor delivers item k on call k, each exactly once,
    // then ends.
    std::size_t delivered = 0;
    while (auto item = handle.next_in_order()) {
        EXPECT_EQ(item->index, delivered);
        EXPECT_EQ(item->value, item_value(item->index));
        ++delivered;
    }
    EXPECT_EQ(delivered, 17u);
    EXPECT_FALSE(handle.next_in_order().has_value());
    EXPECT_EQ(handle.state(), job_state::succeeded);
    EXPECT_EQ(handle.error(), nullptr);
}

TEST(JobQueue, ResultsComeBackInItemOrder) {
    job_queue queue(4);
    const auto results = submit_squares(queue, 33, 5).results();
    ASSERT_EQ(results.size(), 33u);
    for (std::size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(results[i], item_value(i));
    }
}

TEST(JobQueue, PublishedCallbackNeverRacesAheadOfVisibility) {
    // The notifier probes the handle, so every group waits until the handle
    // is assigned; the notifier itself is installed by submit(), before any
    // task runs, so no publication can slip past it.  The queue is declared
    // last: its destructor joins the workers before the notifier's state
    // dies.
    gate start;
    job_handle<int> handle;
    std::atomic<std::size_t> wakes{0};
    std::atomic<bool> terminal_seen{false};
    std::promise<void> terminal_wake;
    job_queue queue(2);
    handle = queue.submit<int>(
        10, 3,
        [open = start.open](std::size_t first, std::size_t count, int* out) {
            open.wait();
            for (std::size_t l = 0; l < count; ++l) {
                out[l] = item_value(first + l);
            }
        },
        [&] {
            // Post-publish contract: whatever this wake advertises is
            // already observable -- including the terminal flip of the last
            // group, after which every item must be visible.
            wakes.fetch_add(1, std::memory_order_relaxed);
            if (handle.finished() && !terminal_seen.exchange(true)) {
                terminal_wake.set_value();
            }
        });
    start.release();

    // Some wake must observe the terminal state -- a lost final wake is
    // exactly what an event loop dies on.  The wake for the final
    // publication may fire after wait() returns, so wait on the wake
    // itself.
    auto terminal = terminal_wake.get_future();
    ASSERT_EQ(terminal.wait_for(std::chrono::seconds(30)), std::future_status::ready)
        << "no wake observed the terminal state";
    EXPECT_GE(wakes.load(), 1u);

    // An event-driven consumer woken by the terminal wake drains the whole
    // job without ever blocking: all ten items are visible.
    for (std::size_t i = 0; i < 10; ++i) {
        auto item = handle.try_next_in_order();
        ASSERT_TRUE(item.has_value()) << "item " << i << " not visible after the wake";
        EXPECT_EQ(item->value, item_value(i));
    }
}

TEST(JobQueue, ConcurrentJobsShareOnePool) {
    job_queue queue(4);
    auto a = submit_squares(queue, 20, 2);
    auto b = submit_squares(queue, 20, 2);
    const auto results_a = a.results();
    const auto results_b = b.results();
    EXPECT_EQ(results_a, results_b);
}

TEST(JobQueue, EmptyJobIsRejected) {
    job_queue queue(1);
    EXPECT_THROW(submit_squares(queue, 0, 1), precondition_error);
}

TEST(JobQueue, WorkerExceptionFailsTheJobAndIsRethrown) {
    job_queue queue(2);
    auto handle = queue.submit<int>(
        8, 1, [](std::size_t first, std::size_t, int* out) {
            if (first == 3) {
                throw configuration_error("item 3 exploded");
            }
            out[0] = item_value(first);
        });
    // The in-order stream ends early, at the first item that never
    // completes (item 3 at the latest; the rest of the work is drained),
    // and what it delivered stays readable without throwing.
    while (auto item = handle.next_in_order()) {
        EXPECT_EQ(item->value, item_value(item->index));
        EXPECT_LT(item->index, 3u);
    }
    EXPECT_EQ(handle.state(), job_state::failed);
    EXPECT_NE(handle.error(), nullptr);
    EXPECT_THROW(handle.results(), configuration_error);
    // The pool survives a failed job: the next submission runs normally.
    EXPECT_EQ(submit_squares(queue, 5, 1).results().size(), 5u);
}

TEST(JobQueue, CancelSkipsUnstartedWorkAndKeepsCompletedItems) {
    job_queue queue(2);
    // Two gate-blocked items occupy both workers; everything behind them
    // is unclaimed until the gate opens, so cancelling now deterministically
    // skips items 2..15 and completes exactly items 0 and 1.
    gate release;
    std::atomic<int> started{0};
    auto handle = queue.submit<int>(
        16, 1,
        [&started, open = release.open](std::size_t first, std::size_t, int* out) {
            if (first < 2) {
                started.fetch_add(1);
                open.wait();
            }
            out[0] = item_value(first);
        });
    while (started.load() < 2) {
        std::this_thread::yield();
    }
    handle.cancel();
    release.release();
    handle.wait();

    EXPECT_EQ(handle.state(), job_state::cancelled);
    EXPECT_THROW(handle.results(), configuration_error);
    // The in-order stream delivers the two completed items, then ends at
    // the first skipped one.
    for (std::size_t i = 0; i < 2; ++i) {
        const auto item = handle.next_in_order();
        ASSERT_TRUE(item.has_value());
        EXPECT_EQ(item->index, i);
        EXPECT_EQ(item->value, item_value(i));
    }
    EXPECT_FALSE(handle.next_in_order().has_value());
}

TEST(JobQueue, DestructionFinishesOutstandingHandles) {
    // Dropping the queue mid-job must cancel pending work, join every
    // worker and leave the handle in a terminal state -- never a leaked
    // thread or a handle that blocks forever.
    job_handle<int> handle;
    gate release;
    std::atomic<int> started{0};
    std::thread opener;
    {
        job_queue queue(1);
        handle = queue.submit<int>(
            32, 1,
            [&started, open = release.open](std::size_t first, std::size_t, int* out) {
                if (first == 0) {
                    started.fetch_add(1);
                    open.wait();
                }
                out[0] = item_value(first);
            });
        while (started.load() < 1) {
            std::this_thread::yield();
        }
        // Let the destructor run against a blocked worker; it requests
        // cancellation, the gate opens, the in-flight item completes and
        // the rest are skipped.  The opener releases once the destructor
        // has requested the cancel.
        opener = std::thread([&release, &handle] {
            while (!handle.cancel_requested()) {
                std::this_thread::yield();
            }
            release.release();
        });
    }
    opener.join();
    ASSERT_TRUE(handle.finished());
    EXPECT_EQ(handle.state(), job_state::cancelled);
    // The in-flight item 0 completed and is delivered; the cursor then
    // ends at the first skipped item.
    const auto first = handle.next_in_order();
    ASSERT_TRUE(first.has_value());
    EXPECT_EQ(first->index, 0u);
    EXPECT_EQ(first->value, item_value(0));
    EXPECT_FALSE(handle.next_in_order().has_value());
}

// --- Engine sessions over the queue ----------------------------------------

analyzer_settings fast_settings() {
    analyzer_settings settings;
    settings.evaluator.modulator = sd::modulator_params::ideal();
    settings.evaluator.offset = eval::offset_mode::none;
    settings.periods = 50;
    settings.settle_periods = 16;
    return settings;
}

board_factory paper_factory() {
    return [](std::uint64_t seed) {
        core::demonstrator_board board(gen::generator_params::ideal(),
                                       dut::make_paper_dut(0.01, seed));
        board.set_amplitude(millivolt(150.0));
        return board;
    };
}

sweep_engine make_engine(std::size_t threads, std::size_t lanes,
                         std::shared_ptr<job_queue> queue = nullptr) {
    sweep_engine_options options;
    options.threads = threads;
    options.batch_lanes = lanes;
    options.queue = std::move(queue);
    return sweep_engine(paper_factory(), fast_settings(), options);
}

void expect_reports_identical(const core::screening_report& a,
                              const core::screening_report& b) {
    EXPECT_EQ(a.passed, b.passed);
    EXPECT_EQ(a.stimulus_volts, b.stimulus_volts);
    EXPECT_EQ(a.offset_rate, b.offset_rate);
    ASSERT_EQ(a.limits.size(), b.limits.size());
    for (std::size_t i = 0; i < a.limits.size(); ++i) {
        EXPECT_EQ(a.limits[i].measured_db, b.limits[i].measured_db);
        EXPECT_EQ(a.limits[i].phase_deg, b.limits[i].phase_deg);
        EXPECT_EQ(a.limits[i].margin_db, b.limits[i].margin_db);
    }
}

TEST(JobQueue, StreamedScreeningIsBitIdenticalAtEveryThreadLaneCombo) {
    const auto mask = spec_mask::paper_lowpass();
    const std::size_t dice = 9;
    const auto reference =
        make_engine(1, 1).submit_screening(mask, dice, /*first_seed=*/3).results();

    for (std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
        for (std::size_t lanes : {std::size_t{1}, std::size_t{4}}) {
            auto engine = make_engine(threads, lanes);
            auto handle = engine.submit_screening(mask, dice, /*first_seed=*/3);
            std::size_t pulled = 0;
            while (auto item = handle.next_in_order()) {
                ASSERT_EQ(item->index, pulled);
                expect_reports_identical(item->value, reference[pulled]);
                ++pulled;
            }
            ASSERT_EQ(pulled, dice) << threads << " threads, " << lanes << " lanes";
            EXPECT_EQ(handle.state(), job_state::succeeded);
        }
    }
}

TEST(JobQueue, StreamedBodePointsMatchBlockingRun) {
    const auto frequencies = core::log_spaced(hertz{200.0}, kilohertz(4.0), 6);
    auto blocking_engine = make_engine(1, 1);
    const auto blocking = blocking_engine.run(frequencies);

    for (std::size_t lanes : {std::size_t{1}, std::size_t{3}}) {
        auto engine = make_engine(2, lanes);
        auto handle = engine.submit_bode(frequencies);
        std::vector<core::frequency_point> streamed;
        while (auto item = handle.next_in_order()) {
            streamed.push_back(std::move(item->value));
        }
        ASSERT_EQ(streamed.size(), frequencies.size());
        ASSERT_EQ(handle.state(), job_state::succeeded);
        for (std::size_t i = 0; i < frequencies.size(); ++i) {
            EXPECT_EQ(streamed[i].gain_db, blocking.points[i].gain_db) << "point " << i;
            EXPECT_EQ(streamed[i].phase_deg, blocking.points[i].phase_deg) << "point " << i;
            EXPECT_EQ(streamed[i].gain_db_bounds, blocking.points[i].gain_db_bounds);
        }
    }
}

TEST(JobQueue, StreamedAcquisitionMatchesBlockingAcquireAndFlagsThd) {
    const auto settings = fast_settings();
    const auto make_items = [&] {
        std::vector<sweep_engine::acquisition_item> items(5);
        for (std::size_t i = 0; i < items.size(); ++i) {
            items[i].make_board = [factory = paper_factory()] { return factory(1); };
            items[i].evaluator = settings.evaluator;
            items[i].evaluator.seed = core::sweep_item_seed(11, i);
        }
        return items;
    };
    sweep_engine::acquisition_program program;
    program.frequencies = {hertz{200.0}, hertz{1000.0}};

    auto engine = make_engine(2, 2);
    const auto blocking = engine.submit_acquisition(make_items(), program).results();

    // No distortion stage: the explicit flag says so, and thd_db carries
    // no pretend reading (NaN, not 0 dB).
    for (const auto& result : blocking) {
        EXPECT_FALSE(result.has_thd);
        EXPECT_TRUE(std::isnan(result.thd_db));
    }

    auto handle = engine.submit_acquisition(make_items(), program);
    std::vector<sweep_engine::acquisition_result> streamed;
    while (auto item = handle.next_in_order()) {
        streamed.push_back(std::move(item->value));
    }
    ASSERT_EQ(handle.state(), job_state::succeeded);
    ASSERT_EQ(streamed.size(), blocking.size());
    for (std::size_t i = 0; i < streamed.size(); ++i) {
        EXPECT_EQ(streamed[i].calibration.amplitude.volts,
                  blocking[i].calibration.amplitude.volts);
        EXPECT_EQ(streamed[i].offset_rate, blocking[i].offset_rate);
        EXPECT_EQ(streamed[i].has_thd, blocking[i].has_thd);
        ASSERT_EQ(streamed[i].points.size(), blocking[i].points.size());
        for (std::size_t p = 0; p < streamed[i].points.size(); ++p) {
            EXPECT_EQ(streamed[i].points[p].gain_db, blocking[i].points[p].gain_db);
        }
    }

    // With a distortion stage the flag flips and the reading is real.
    program.distortion_max_harmonic = 3;
    const auto with_thd = engine.submit_acquisition(make_items(), program).results();
    for (const auto& result : with_thd) {
        EXPECT_TRUE(result.has_thd);
        EXPECT_FALSE(std::isnan(result.thd_db));
    }
}

TEST(JobQueue, EnginesSharingOnePoolStayBitIdentical) {
    const auto mask = spec_mask::paper_lowpass();
    const std::size_t dice = 6;
    const auto reference =
        make_engine(1, 1).submit_screening(mask, dice, /*first_seed=*/3).results();
    const auto bode_reference = make_engine(1, 1).run(core::log_spaced(hertz{200.0}, kilohertz(2.0), 5));

    auto queue = std::make_shared<job_queue>(4);
    auto screening_engine = make_engine(0, 2, queue);
    auto bode_engine = make_engine(0, 1, queue);
    EXPECT_EQ(screening_engine.threads(), 4u);

    // Two sessions in flight on one pool at once.
    auto screening = screening_engine.submit_screening(mask, dice, /*first_seed=*/3);
    auto bode = bode_engine.submit_bode(core::log_spaced(hertz{200.0}, kilohertz(2.0), 5));

    const auto reports = screening.results();
    const auto points = bode.results();
    ASSERT_EQ(reports.size(), dice);
    for (std::size_t die = 0; die < dice; ++die) {
        expect_reports_identical(reports[die], reference[die]);
    }
    ASSERT_EQ(points.size(), bode_reference.points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(points[i].gain_db, bode_reference.points[i].gain_db);
    }
}

TEST(JobQueue, MidLotCancellationKeepsTheCompletedSubsetBitIdentical) {
    const auto mask = spec_mask::paper_lowpass();
    const std::size_t dice = 24;
    const auto reference =
        make_engine(1, 1).submit_screening(mask, dice, /*first_seed=*/5).results();

    auto engine = make_engine(2, 1);
    auto handle = engine.submit_screening(mask, dice, /*first_seed=*/5);
    // Pull a couple of reports, then cancel the rest of the lot.
    for (std::size_t die = 0; die < 2; ++die) {
        auto item = handle.next_in_order();
        ASSERT_TRUE(item.has_value());
        expect_reports_identical(item->value, reference[item->index]);
    }
    handle.cancel();
    handle.wait();

    // Whatever the cursor still delivers after the cancel matches the
    // synchronous reference die for die; nothing half-measured ever
    // surfaces.
    std::size_t delivered = 2;
    while (auto item = handle.next_in_order()) {
        ASSERT_EQ(item->index, delivered);
        expect_reports_identical(item->value, reference[item->index]);
        ++delivered;
    }
    if (delivered < dice) {
        EXPECT_EQ(handle.state(), job_state::cancelled);
    }
}

TEST(JobQueue, EngineWithPrivatePoolCanBeDroppedMidJob) {
    // Destroying an engine (and with it its private queue) while a
    // submitted job is still running must join the workers before any
    // other engine member dies: the handle ends terminal, every completed
    // item bit-identical to the reference, nothing dangles (the sanitizer
    // jobs run this suite).
    const auto mask = spec_mask::paper_lowpass();
    const std::size_t dice = 16;
    const auto reference =
        make_engine(1, 1).submit_screening(mask, dice, /*first_seed=*/7).results();

    core::job_handle<core::screening_report> handle;
    {
        auto engine = make_engine(2, 1);
        handle = engine.submit_screening(mask, dice, /*first_seed=*/7);
        auto first = handle.next_in_order();
        ASSERT_TRUE(first.has_value());
        expect_reports_identical(first->value, reference[0]);
    } // engine destroyed: private queue cancels pending dice and joins
    ASSERT_TRUE(handle.finished());
    // Every item the cursor still delivers after the drop matches the
    // reference.
    std::size_t delivered = 1;
    while (auto item = handle.next_in_order()) {
        ASSERT_EQ(item->index, delivered);
        expect_reports_identical(item->value, reference[item->index]);
        ++delivered;
    }
}

TEST(JobQueue, ScreeningWorkerExceptionSurfacesThroughTheStream) {
    board_factory throwing = [](std::uint64_t seed) -> core::demonstrator_board {
        if (seed >= 4) {
            throw configuration_error("die factory exploded");
        }
        core::demonstrator_board board(gen::generator_params::ideal(),
                                       dut::make_paper_dut(0.01, seed));
        board.set_amplitude(millivolt(150.0));
        return board;
    };
    sweep_engine_options options;
    options.threads = 2;
    sweep_engine engine(throwing, fast_settings(), options);
    auto handle = engine.submit_screening(spec_mask::paper_lowpass(), 8, /*first_seed=*/1);
    while (handle.next_in_order()) {
    }
    EXPECT_EQ(handle.state(), job_state::failed);
    EXPECT_THROW(handle.results(), configuration_error);
}

// --- scheduling fairness ---------------------------------------------------

/// Submit a job whose tasks append `label` to a shared order log; task 0
/// optionally parks the worker until `open` is ready, so concurrent jobs can
/// be staged before any claims happen.
job_handle<int> submit_labelled(job_queue& queue, std::size_t items, char label,
                                std::mutex& mutex, std::vector<char>& order,
                                std::shared_future<void> open = {}) {
    return queue.submit<int>(items, 1,
                             [&mutex, &order, label, open](std::size_t first, std::size_t,
                                                           int* out) {
                                 if (open.valid() && first == 0) {
                                     open.wait();
                                 }
                                 {
                                     std::lock_guard<std::mutex> lock(mutex);
                                     order.push_back(label);
                                 }
                                 out[0] = 0;
                             });
}

TEST(JobQueue, RoundRobinScheduleInterleavesConcurrentJobs) {
    // One worker makes the claim order fully observable: task 0 of A
    // parks it until both jobs are queued, then the rotation must
    // alternate A/B claims instead of draining A first.
    job_queue queue(1);
    std::mutex mutex;
    std::vector<char> order;
    gate staged;
    auto a = submit_labelled(queue, 6, 'A', mutex, order, staged.open);
    auto b = submit_labelled(queue, 6, 'B', mutex, order);
    staged.release();
    (void)a.results();
    (void)b.results();
    EXPECT_EQ(std::string(order.begin(), order.end()), "ABABABABABAB");
}

TEST(JobQueue, RoundRobinStaysFairAsJobsComeAndGo) {
    // A short job among long ones: once it drains, the rotation continues
    // over the survivors without skipping or double-serving anyone.
    job_queue queue(1);
    std::mutex mutex;
    std::vector<char> order;
    gate staged;
    auto a = submit_labelled(queue, 5, 'A', mutex, order, staged.open);
    auto b = submit_labelled(queue, 2, 'B', mutex, order);
    auto c = submit_labelled(queue, 5, 'C', mutex, order);
    staged.release();
    (void)a.results();
    (void)b.results();
    (void)c.results();
    EXPECT_EQ(std::string(order.begin(), order.end()), "ABCABCACACAC");
}

TEST(JobQueue, TryNextInOrderNeverBlocks) {
    job_queue queue(2);
    gate computed;
    auto handle = queue.submit<int>(
        4, 1,
        [open = computed.open](std::size_t first, std::size_t, int* out) {
            open.wait();
            out[0] = item_value(first);
        });
    // Nothing has completed: the non-blocking probe reports "not yet"
    // instead of parking the caller.
    EXPECT_FALSE(handle.try_next_in_order().has_value());
    EXPECT_FALSE(handle.finished());
    computed.release();
    handle.wait();
    for (std::size_t i = 0; i < 4; ++i) {
        const auto item = handle.try_next_in_order();
        ASSERT_TRUE(item.has_value()) << "item " << i;
        EXPECT_EQ(item->index, i);
        EXPECT_EQ(item->value, item_value(i));
    }
    EXPECT_FALSE(handle.try_next_in_order().has_value());
}

} // namespace
