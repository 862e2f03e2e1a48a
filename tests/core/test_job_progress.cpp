// job_progress regression suite: completed_items() must be monotonic and
// must move MID-GROUP when the group function ticks, not only when whole
// groups publish.  The pre-progress behavior (completed_count only) made a
// 1-group job report 0 until the instant it reported everything.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "core/job_queue.hpp"

namespace {

using namespace bistna;

TEST(JobQueueProgress, TicksAreObservableMidGroup) {
    core::job_queue queue(1);
    constexpr std::size_t kItems = 4;

    std::atomic<bool> release{false};
    // One group holds the whole job, so without mid-group ticks the old
    // completed_items() would stay 0 until the group publishes.
    auto handle = queue.submit<int>(
        kItems, kItems,
        [&](std::size_t first, std::size_t count, int* out,
            const core::job_progress& progress) {
            for (std::size_t i = 0; i < count; ++i) {
                out[i] = static_cast<int>(first + i);
                progress.items_done();
                if (i + 1 == count / 2) {
                    // Half done: hold the group open until the test has
                    // observed the mid-group value.
                    while (!release.load(std::memory_order_acquire)) {
                        std::this_thread::yield();
                    }
                }
            }
        });

    // The worker parks half way with 2 of 4 items ticked.
    while (handle.completed_items() < kItems / 2) {
        std::this_thread::yield();
    }
    EXPECT_EQ(handle.completed_items(), kItems / 2);
    EXPECT_FALSE(handle.finished());

    release.store(true, std::memory_order_release);
    const auto results = handle.results();
    ASSERT_EQ(results.size(), kItems);
    for (std::size_t i = 0; i < kItems; ++i) {
        EXPECT_EQ(results[i], static_cast<int>(i));
    }
    EXPECT_EQ(handle.completed_items(), kItems);
}

TEST(JobQueueProgress, CompletedItemsIsMonotonicUnderSampling) {
    core::job_queue queue(2);
    constexpr std::size_t kItems = 256;
    auto handle = queue.submit<std::uint64_t>(
        kItems, 8,
        [](std::size_t first, std::size_t count, std::uint64_t* out,
           const core::job_progress& progress) {
            for (std::size_t i = 0; i < count; ++i) {
                out[i] = first + i;
                progress.items_done();
            }
        });

    std::size_t last = 0;
    while (!handle.finished()) {
        const std::size_t now = handle.completed_items();
        EXPECT_GE(now, last);
        last = now;
    }
    (void)handle.results();
    EXPECT_EQ(handle.completed_items(), kItems);
}

TEST(JobQueueProgress, ExactCountForTickingGroups) {
    // Ticks must sum to exactly the item count: never ahead of the truth
    // at the end, even with many short final groups.
    core::job_queue queue(4);
    for (std::size_t items : {1ul, 7ul, 64ul, 100ul}) {
        auto handle = queue.submit<int>(
            items, 6,
            [](std::size_t, std::size_t count, int* out,
               const core::job_progress& progress) {
                for (std::size_t i = 0; i < count; ++i) {
                    out[i] = 1;
                }
                progress.items_done(count);
            });
        (void)handle.results();
        EXPECT_EQ(handle.completed_items(), items);
    }
}

TEST(JobQueueProgress, EngineScreeningTicksPerDieNotPerGroup) {
    // End-to-end through the sweep engine is covered by the engine suite;
    // here we only pin the plumbing contract the examples rely on: a
    // default-constructed job_progress is inert and safe to call.
    const core::job_progress inert;
    inert.items_done();
    inert.items_done(10);
    SUCCEED();
}

} // namespace
