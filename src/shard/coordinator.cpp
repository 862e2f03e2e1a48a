#include "shard/coordinator.hpp"

#include <iterator>

#include "telemetry/snapshot_record.hpp"

namespace bistna::shard {

coordinator_report run_lot(const lot_manifest& manifest,
                           const std::string& out_path,
                           const supervisor_options& options) {
    coordinator_report report;
    report.shards = run_shards(manifest, options);
    report.merge = merge_shard_stores(report.shards.shard_files, out_path,
                                      manifest.record_id(0), manifest.total_units());
    if (options.telemetry_sidecars) {
        // Sidecars are observability, not lot data: a worker that produced
        // a complete shard store but a missing/torn sidecar (e.g. killed
        // between flushes on a retried attempt) must not fail the lot.
        for (const auto& attempt : report.shards.attempts) {
            if (!attempt.succeeded || attempt.telemetry_path.empty()) {
                continue;
            }
            try {
                auto snapshots =
                    telemetry::read_snapshot_store(attempt.telemetry_path);
                report.worker_snapshots.insert(
                    report.worker_snapshots.end(),
                    std::make_move_iterator(snapshots.begin()),
                    std::make_move_iterator(snapshots.end()));
            } catch (const std::exception&) {
                // leave the lot report intact; the sidecar is best-effort
            }
        }
    }
    return report;
}

} // namespace bistna::shard
