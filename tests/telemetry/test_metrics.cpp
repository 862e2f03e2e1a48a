// Metric registry: per-thread sharded counters and log-2 histograms.
// The suite hammers the hot path from many threads (the TSan CI build is
// the real assertion there), pins down the exact bucket geometry, and
// verifies the whole detached/attached lifecycle -- including that a
// detached registry records exactly nothing.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/snapshot.hpp"

namespace {

using namespace bistna;

TEST(TelemetryMetrics, InterningIsStableAndNamesRoundTrip) {
    const auto a = telemetry::counter_id("test.metrics.alpha");
    const auto b = telemetry::counter_id("test.metrics.beta");
    EXPECT_NE(a, b);
    EXPECT_EQ(a, telemetry::counter_id("test.metrics.alpha"));
    EXPECT_EQ(telemetry::counter_name(a), "test.metrics.alpha");

    const auto h = telemetry::histogram_id("test.metrics.hist");
    EXPECT_EQ(h, telemetry::histogram_id("test.metrics.hist"));
    EXPECT_EQ(telemetry::histogram_name(h), "test.metrics.hist");
}

TEST(TelemetryMetrics, DetachedRecordingIsANoOp) {
    ASSERT_FALSE(telemetry::attached());
    const auto counter = telemetry::counter_id("test.noop.counter");
    const auto histogram = telemetry::histogram_id("test.noop.hist");
    telemetry::counter_add(counter, 7);
    telemetry::histogram_record(histogram, 1234);
    telemetry::emit_span("test.noop.span", 1, 2);

    // A registry attached only afterwards must not see any of it.
    telemetry::metric_registry registry;
    {
        telemetry::registry_scope scope(registry);
    }
    const auto snapshot = registry.snapshot();
    EXPECT_EQ(snapshot.counter("test.noop.counter"), 0u);
    const auto* hist = snapshot.find_histogram("test.noop.hist");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->count, 0u);
    EXPECT_TRUE(snapshot.spans.empty());
}

TEST(TelemetryMetrics, ConcurrentHammeringAggregatesExactly) {
    constexpr std::size_t kThreads = 8;
    constexpr std::uint64_t kPerThread = 20000;
    const auto counter = telemetry::counter_id("test.hammer.counter");
    const auto histogram = telemetry::histogram_id("test.hammer.hist");

    telemetry::metric_registry registry;
    registry.attach();

    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            for (std::uint64_t i = 0; i < kPerThread; ++i) {
                telemetry::counter_add(counter);
                telemetry::histogram_record(histogram, t + 1);
            }
        });
    }
    for (auto& w : workers) {
        w.join();
    }
    registry.detach();

    const auto snapshot = registry.snapshot();
    EXPECT_EQ(snapshot.counter("test.hammer.counter"), kThreads * kPerThread);
    const auto* hist = snapshot.find_histogram("test.hammer.hist");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->count, kThreads * kPerThread);
    // Exact sum: each thread t contributed kPerThread samples of value t+1.
    std::uint64_t expected_sum = 0;
    for (std::size_t t = 0; t < kThreads; ++t) {
        expected_sum += (t + 1) * kPerThread;
    }
    EXPECT_EQ(hist->sum, expected_sum);
    // Every recording thread got its own shard row.
    EXPECT_GE(snapshot.threads.size(), kThreads);
}

TEST(TelemetryMetrics, SnapshotIsReadableWhileAttachedAndRecording) {
    const auto counter = telemetry::counter_id("test.live.counter");
    telemetry::metric_registry registry;
    telemetry::registry_scope scope(registry);

    std::atomic<bool> stop{false};
    std::thread writer([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            telemetry::counter_add(counter);
        }
    });
    std::uint64_t last = 0;
    for (int i = 0; i < 50; ++i) {
        const std::uint64_t now = registry.snapshot().counter("test.live.counter");
        EXPECT_GE(now, last); // monotone under concurrent writes
        last = now;
    }
    stop.store(true, std::memory_order_relaxed);
    writer.join();
}

TEST(TelemetryMetrics, HistogramBucketBoundariesAreExact) {
    // The geometry: bucket 0 = {0}, bucket k >= 1 = [2^(k-1), 2^k - 1].
    EXPECT_EQ(telemetry::bucket_index(0), 0u);
    EXPECT_EQ(telemetry::bucket_index(1), 1u);
    EXPECT_EQ(telemetry::bucket_index(2), 2u);
    EXPECT_EQ(telemetry::bucket_index(3), 2u);
    EXPECT_EQ(telemetry::bucket_index(4), 3u);
    EXPECT_EQ(telemetry::bucket_index(std::numeric_limits<std::uint64_t>::max()),
              64u);
    for (std::size_t bucket = 0; bucket < telemetry::histogram_buckets; ++bucket) {
        // Both edges of every bucket map back into that bucket.
        EXPECT_EQ(telemetry::bucket_index(telemetry::bucket_lower_bound(bucket)),
                  bucket);
        EXPECT_EQ(telemetry::bucket_index(telemetry::bucket_upper_bound(bucket)),
                  bucket);
        if (bucket > 0) {
            // And the value one below the lower edge does not.
            EXPECT_EQ(
                telemetry::bucket_index(telemetry::bucket_lower_bound(bucket) - 1),
                bucket - 1);
        }
    }

    const auto histogram = telemetry::histogram_id("test.buckets.hist");
    telemetry::metric_registry registry;
    {
        telemetry::registry_scope scope(registry);
        telemetry::histogram_record(histogram, 0);    // bucket 0
        telemetry::histogram_record(histogram, 1);    // bucket 1
        telemetry::histogram_record(histogram, 2);    // bucket 2
        telemetry::histogram_record(histogram, 3);    // bucket 2
        telemetry::histogram_record(histogram, 4);    // bucket 3
        telemetry::histogram_record(histogram, 1023); // bucket 10
        telemetry::histogram_record(histogram, 1024); // bucket 11
    }
    // The snapshot must outlive the pointer find_histogram returns into it.
    const auto snap = registry.snapshot();
    const auto* hist = snap.find_histogram("test.buckets.hist");
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->count, 7u);
    EXPECT_EQ(hist->sum, 0u + 1 + 2 + 3 + 4 + 1023 + 1024);
    EXPECT_EQ(hist->buckets[0], 1u);
    EXPECT_EQ(hist->buckets[1], 1u);
    EXPECT_EQ(hist->buckets[2], 2u);
    EXPECT_EQ(hist->buckets[3], 1u);
    EXPECT_EQ(hist->buckets[10], 1u);
    EXPECT_EQ(hist->buckets[11], 1u);
    // Quantiles are bucket-resolution upper bounds.
    EXPECT_EQ(hist->quantile_upper_bound(0.0), 0u);
    EXPECT_EQ(hist->quantile_upper_bound(1.0), 2047u);
}

TEST(TelemetryMetrics, ReattachRoutesToTheNewRegistryOnly) {
    const auto counter = telemetry::counter_id("test.reattach.counter");

    telemetry::metric_registry first;
    first.attach();
    telemetry::counter_add(counter, 5);
    first.detach();

    telemetry::metric_registry second;
    second.attach();
    telemetry::counter_add(counter, 11);
    second.detach();

    EXPECT_EQ(first.snapshot().counter("test.reattach.counter"), 5u);
    EXPECT_EQ(second.snapshot().counter("test.reattach.counter"), 11u);
}

TEST(TelemetryMetrics, DoubleAttachThrows) {
    telemetry::metric_registry first;
    telemetry::metric_registry second;
    telemetry::registry_scope scope(first);
    EXPECT_THROW(second.attach(), precondition_error);
    EXPECT_THROW(first.attach(), precondition_error);
}

TEST(TelemetryMetrics, ThreadNamesAppearInSnapshots) {
    telemetry::metric_registry registry;
    telemetry::registry_scope scope(registry);
    std::thread worker([] {
        telemetry::set_thread_name("metrics-test-worker");
        telemetry::counter_add(telemetry::counter_id("test.names.counter"));
    });
    worker.join();
    const auto snapshot = registry.snapshot();
    bool found = false;
    for (const auto& thread : snapshot.threads) {
        found = found || thread.name == "metrics-test-worker";
    }
    EXPECT_TRUE(found);
}

} // namespace
