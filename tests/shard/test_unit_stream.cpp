// The unit_stream seam: one manifest range in, store records in global
// unit order out -- the pipeline both the offline shard worker and the
// screening service stand on.  Checks in-order delivery, the non-blocking
// consumption loop, shared-pool and shared-cache bit-identity, cooperative
// cancel and empty ranges.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include "core/job_queue.hpp"
#include "core/sweep_engine.hpp"
#include "eval/calibration_share.hpp"
#include "shard/manifest.hpp"
#include "shard/unit_stream.hpp"
#include "store/format.hpp"

namespace {

using namespace bistna;
using shard::unit_stream;

/// Short-acquisition settings keeping a multi-stream test test-sized.
shard::lot_manifest fast_manifest(std::uint64_t dice = 6) {
    shard::lot_manifest manifest;
    manifest.periods = 20;
    manifest.settle_periods = 4;
    manifest.distortion_periods = 40;
    manifest.calibration_periods = 256;
    manifest.dice = dice;
    manifest.first_seed = 11;
    manifest.threads = 1;
    manifest.batch_lanes = 4;
    return manifest;
}

std::vector<shard::unit_record> drain_blocking(unit_stream& stream) {
    std::vector<shard::unit_record> items;
    while (auto item = stream.next()) {
        items.push_back(std::move(*item));
    }
    return items;
}

TEST(UnitStream, DeliversTheRangeInGlobalUnitOrder) {
    const auto manifest = fast_manifest(6);
    unit_stream stream(manifest, /*first_unit=*/2, /*units=*/3);
    EXPECT_EQ(stream.total_units(), 3u);
    const auto items = drain_blocking(stream);
    ASSERT_EQ(items.size(), 3u);
    for (std::size_t i = 0; i < items.size(); ++i) {
        EXPECT_EQ(items[i].unit, 2u + i);
        EXPECT_EQ(items[i].record.type, store::record_type::screening_report);
    }
    EXPECT_TRUE(stream.finished());
    EXPECT_EQ(stream.delivered(), 3u);
    EXPECT_EQ(stream.error(), nullptr);
}

TEST(UnitStream, SliceOfSharedPoolMatchesPrivatePoolByteForByte) {
    const auto manifest = fast_manifest(8);

    // Reference: each range on its own private pool.
    unit_stream ref_a(manifest, 0, 4);
    unit_stream ref_b(manifest, 4, 4);
    const auto items_a = drain_blocking(ref_a);
    const auto items_b = drain_blocking(ref_b);

    // Same ranges multiplexed onto one shared pool (the daemon's shape),
    // with wakeup callbacks firing from worker threads.
    auto queue = std::make_shared<core::job_queue>(3);
    std::atomic<int> wakes{0};
    unit_stream svc_a(manifest, 0, 4, queue, [&] { wakes.fetch_add(1); });
    unit_stream svc_b(manifest, 4, 4, queue, [&] { wakes.fetch_add(1); });
    const auto got_a = drain_blocking(svc_a);
    const auto got_b = drain_blocking(svc_b);

    ASSERT_EQ(got_a.size(), items_a.size());
    ASSERT_EQ(got_b.size(), items_b.size());
    for (std::size_t i = 0; i < got_a.size(); ++i) {
        EXPECT_EQ(got_a[i].unit, items_a[i].unit);
        EXPECT_EQ(got_a[i].record, items_a[i].record) << "unit " << got_a[i].unit;
    }
    for (std::size_t i = 0; i < got_b.size(); ++i) {
        EXPECT_EQ(got_b[i].record, items_b[i].record) << "unit " << got_b[i].unit;
    }
    // The notifier fires at least once per publication (group publishes
    // may coalesce several items into one wake), but runs on the worker
    // thread just AFTER the publication is pullable -- a blocking drain
    // can outrun the last callback, so give it a moment to land.
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (wakes.load() < 2 && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    EXPECT_GE(wakes.load(), 2);
}

// A handle that carries the calibration share (the daemon's shape) lets a
// range restore what earlier ranges calibrated, so a range's records must
// not depend on which ranges ran before it: the same three ranges in two
// orders on two handles, each record against the range alone on a
// pool-only handle.
TEST(UnitStream, SharedCachesKeepEveryRangeIndependentOfHistory) {
    auto cmos = fast_manifest(6);
    cmos.ideal_modulator = false;
    const auto ideal = fast_manifest(6);
    auto dictionary = fast_manifest();
    dictionary.workload = shard::workload_kind::dictionary;
    dictionary.grid_points = 3;
    struct range {
        shard::lot_manifest manifest;
        std::uint64_t first = 0;
        std::uint64_t units = 0;
    };
    const std::vector<range> ranges = {{cmos, 1, 5}, {ideal, 0, 6}, {dictionary, 2, 9}};
    ASSERT_GE(dictionary.total_units(), 11u);

    auto queue = std::make_shared<core::job_queue>(2);
    const auto drain_on = [](const range& r, core::engine_pool pool) {
        unit_stream stream(r.manifest, r.first, r.units, std::move(pool));
        return drain_blocking(stream);
    };
    std::vector<std::vector<shard::unit_record>> reference;
    for (const range& r : ranges) {
        reference.push_back(drain_on(r, queue));
        ASSERT_EQ(reference.back().size(), r.units);
    }
    const auto shared_handle = [&queue] {
        return core::engine_pool(queue, std::make_shared<eval::calibration_share>());
    };
    const core::engine_pool forward = shared_handle();
    const core::engine_pool backward = shared_handle();
    std::vector<std::vector<shard::unit_record>> got_forward(ranges.size());
    std::vector<std::vector<shard::unit_record>> got_backward(ranges.size());
    for (std::size_t i = 0; i < ranges.size(); ++i) {
        got_forward[i] = drain_on(ranges[i], forward);
    }
    for (std::size_t i = ranges.size(); i-- > 0;) {
        got_backward[i] = drain_on(ranges[i], backward);
    }
    EXPECT_GT(forward.calibrations->entries(), 0u);
    for (std::size_t i = 0; i < ranges.size(); ++i) {
        ASSERT_EQ(got_forward[i].size(), reference[i].size()) << "range " << i;
        ASSERT_EQ(got_backward[i].size(), reference[i].size()) << "range " << i;
        for (std::size_t u = 0; u < reference[i].size(); ++u) {
            EXPECT_EQ(got_forward[i][u].unit, reference[i][u].unit);
            EXPECT_EQ(got_forward[i][u].record, reference[i][u].record)
                << "range " << i << " unit " << reference[i][u].unit << ", forward";
            EXPECT_EQ(got_backward[i][u].record, reference[i][u].record)
                << "range " << i << " unit " << reference[i][u].unit << ", backward";
        }
    }
}

TEST(UnitStream, TryNextDrainsWithoutBlocking) {
    const auto manifest = fast_manifest(5);
    unit_stream stream(manifest, 0, 5);
    std::vector<shard::unit_record> items;
    for (;;) {
        if (auto item = stream.try_next()) {
            items.push_back(std::move(*item));
            continue;
        }
        if (stream.finished()) {
            // Close the publish/terminal race with one more probe before
            // declaring the stream dry -- the event loop does the same.
            if (auto item = stream.try_next()) {
                items.push_back(std::move(*item));
                continue;
            }
            break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(items.size(), 5u);
    for (std::size_t i = 0; i < items.size(); ++i) {
        EXPECT_EQ(items[i].unit, i);
    }
}

TEST(UnitStream, DictionaryWorkloadStreamsAcquisitionRecords) {
    auto manifest = fast_manifest();
    manifest.workload = shard::workload_kind::dictionary;
    manifest.grid_points = 3;
    const std::uint64_t total = manifest.total_units();
    ASSERT_GT(total, 2u);
    // A mid-lot slice: the dictionary plan is built whole and sliced, so
    // unit indices stay global.
    unit_stream stream(manifest, 1, 2);
    const auto items = drain_blocking(stream);
    ASSERT_EQ(items.size(), 2u);
    EXPECT_EQ(items[0].unit, 1u);
    EXPECT_EQ(items[1].unit, 2u);
    EXPECT_EQ(items[0].record.type, store::record_type::acquisition_result);
}

TEST(UnitStream, CancelStopsDeliveryEarly) {
    // Large enough that the single worker cannot finish the whole lot
    // before the cancel lands (cancel after the first delivery).
    const auto manifest = fast_manifest(2000);
    unit_stream stream(manifest, 0, 2000);
    auto first = stream.next();
    ASSERT_TRUE(first.has_value());
    stream.cancel();
    std::uint64_t delivered = 1;
    while (stream.next()) {
        ++delivered;
    }
    EXPECT_LT(delivered, 2000u);
    EXPECT_TRUE(stream.finished());
    EXPECT_EQ(stream.error(), nullptr); // cancelled, not failed
}

TEST(UnitStream, EmptyRangeIsFinishedFromBirth) {
    const auto manifest = fast_manifest(4);
    unit_stream stream(manifest, 2, 0);
    EXPECT_TRUE(stream.finished());
    EXPECT_FALSE(stream.next().has_value());
    EXPECT_FALSE(stream.try_next().has_value());
    EXPECT_EQ(stream.total_units(), 0u);
}

} // namespace
