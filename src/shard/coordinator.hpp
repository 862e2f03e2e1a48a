// Shard coordinator: the one-call multi-process lot runner.  Splits the
// manifest's lot into shards, runs the worker fleet under the supervisor
// (spawn, straggler kill, retry), then merges every attempt's output --
// duplicates deduped, torn tails dropped -- into one lot store whose bytes
// are identical to the store a single worker running the whole lot writes,
// at any shard count, worker count and completion order.
#pragma once

#include <string>
#include <vector>

#include "shard/manifest.hpp"
#include "shard/merger.hpp"
#include "shard/supervisor.hpp"
#include "telemetry/snapshot.hpp"

namespace bistna::shard {

struct coordinator_report {
    supervisor_result shards;
    merge_stats merge;
    /// One telemetry snapshot per successful worker attempt, read from the
    /// --telemetry sidecar stores; empty unless options.telemetry_sidecars
    /// was set.  Feed them (plus the coordinator's own snapshot) to
    /// merge_metrics / write_chrome_trace for a fleet-wide view.
    std::vector<telemetry::telemetry_snapshot> worker_snapshots;
};

/// Run the whole lot: supervise options.shards worker processes over the
/// manifest, then merge their stores into `out_path`.  The merge covers
/// ids [manifest.record_id(0), ... + total_units) exactly; any hole or
/// divergent duplicate throws, so a returned report is a complete,
/// verified lot.
coordinator_report run_lot(const lot_manifest& manifest,
                           const std::string& out_path,
                           const supervisor_options& options);

} // namespace bistna::shard
