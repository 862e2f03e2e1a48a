// The span shape the bench ledger (lotbench) splits engine time by.  The
// executor streams each stage frequency's DUT render through its
// acquisitions in blocks, but emits no span per block: it times the blocks
// into per-stage totals and emits them as consecutive spans over the wall
// time they took.  Per thread, the engine.calibrate, engine.evaluate and
// engine.thd stage spans must never overlap, every eval.modulate must lie
// inside one of them (the ledger charges it to that stage), the DUT render
// must be timed, no span may be dropped, and a lane group must emit the
// same spans however long its records are.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "shard/manifest.hpp"
#include "shard/unit_stream.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/snapshot.hpp"

namespace {

using namespace bistna;

/// Eight dice in two lane groups of four, with THD at the first limit's
/// frequency (its render shared with that limit's stage).
shard::lot_manifest thd_lot(std::size_t distortion_periods) {
    shard::lot_manifest manifest;
    manifest.periods = 20;
    manifest.settle_periods = 4;
    manifest.distortion_periods = distortion_periods;
    manifest.calibration_periods = 256;
    manifest.measure_distortion = true;
    manifest.dice = 8;
    manifest.threads = 2;
    manifest.batch_lanes = 4;
    return manifest;
}

/// Sixteen dictionary items (the healthy reference and three grid points
/// of each of the five catalog faults) in lane groups of four.
shard::lot_manifest dictionary_slice() {
    shard::lot_manifest manifest = thd_lot(40);
    manifest.workload = shard::workload_kind::dictionary;
    manifest.grid_points = 3;
    return manifest;
}

telemetry::telemetry_snapshot traced_run(const shard::lot_manifest& manifest) {
    telemetry::metric_registry registry;
    {
        telemetry::registry_scope metering(registry);
        shard::unit_stream stream(manifest, 0, manifest.total_units());
        std::uint64_t units = 0;
        while (stream.next()) {
            ++units;
        }
        EXPECT_EQ(units, manifest.total_units());
    }
    return registry.snapshot();
}

bool is_stage(const std::string& name) {
    return name == "engine.calibrate" || name == "engine.evaluate" || name == "engine.thd";
}

std::uint64_t end_of(const telemetry::span_value& span) {
    return span.start_ns + span.duration_ns;
}

/// The ledger's contract on one snapshot.
void expect_ledger_shape(const telemetry::telemetry_snapshot& snapshot) {
    for (const auto& thread : snapshot.threads) {
        EXPECT_EQ(thread.dropped_spans, 0u) << "thread " << thread.tid;
    }
    std::map<std::uint32_t, std::vector<const telemetry::span_value*>> stages;
    std::uint64_t render_ns = 0;
    for (const auto& span : snapshot.spans) {
        if (is_stage(span.name)) {
            stages[span.tid].push_back(&span);
        } else if (span.name == "engine.render") {
            render_ns += span.duration_ns;
        }
    }
    EXPECT_GT(render_ns, 0u) << "the DUT render is not timed";
    ASSERT_FALSE(stages.empty());
    for (auto& [tid, spans] : stages) {
        std::sort(spans.begin(), spans.end(),
                  [](const auto* a, const auto* b) { return a->start_ns < b->start_ns; });
        for (std::size_t i = 1; i < spans.size(); ++i) {
            EXPECT_LE(end_of(*spans[i - 1]), spans[i]->start_ns)
                << spans[i - 1]->name << " overlaps " << spans[i]->name << " on thread " << tid;
        }
    }
    std::size_t acquisitions = 0;
    for (const auto& span : snapshot.spans) {
        if (span.name != "eval.modulate") {
            continue;
        }
        ++acquisitions;
        const auto& own = stages[span.tid];
        const bool inside = std::any_of(own.begin(), own.end(), [&](const auto* stage) {
            return stage->start_ns <= span.start_ns && end_of(span) <= end_of(*stage);
        });
        EXPECT_TRUE(inside) << "an eval.modulate of " << span.duration_ns
                            << " ns lies outside every stage span on thread " << span.tid;
    }
    EXPECT_GT(acquisitions, 0u);
}

/// Spans the executor emitted, by name.
std::map<std::string, std::size_t> engine_span_counts(
    const telemetry::telemetry_snapshot& snapshot) {
    std::map<std::string, std::size_t> counts;
    for (const auto& span : snapshot.spans) {
        if (span.name.starts_with("engine.") || span.name == "eval.modulate") {
            ++counts[span.name];
        }
    }
    return counts;
}

TEST(TelemetryEngineSpans, ThdLotStagesNestTheirAcquisitions) {
    expect_ledger_shape(traced_run(thd_lot(40)));
}

TEST(TelemetryEngineSpans, DictionarySliceStagesNestTheirAcquisitions) {
    const auto manifest = dictionary_slice();
    ASSERT_EQ(manifest.total_units(), 16u);
    expect_ledger_shape(traced_run(manifest));
}

// Doubling the THD record doubles its streamed blocks but not its spans.
TEST(TelemetryEngineSpans, NoSpanPerStreamedBlock) {
    const auto short_lot = engine_span_counts(traced_run(thd_lot(40)));
    const auto long_lot = engine_span_counts(traced_run(thd_lot(80)));
    EXPECT_EQ(short_lot, long_lot);
    EXPECT_EQ(short_lot.count("engine.thd"), 1u);
    EXPECT_EQ(short_lot.at("engine.thd"), 2u) << "one per lane group";
}

} // namespace
