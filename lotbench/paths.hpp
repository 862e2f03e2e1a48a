// The three ways a lot runs, each timed from outside the program, plus the
// correctness checks every run applies to their outputs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "telemetry/snapshot.hpp"

namespace bistna::svc {
class service_server;
}

namespace lotbench {

/// Records between forced flushes on every store the benchmark writes (the
/// shard worker's default).
inline constexpr std::size_t store_flush_interval = 32;

/// One timed pass of a path over the whole lot.
struct path_run {
    double seconds = 0.0;
    /// The lot's store, byte-comparable with the engine's.
    std::string store;
    /// Daemon only: submit -> done latency of every request, in ms.
    std::vector<double> request_ms;
    /// Units that errored, were shed or never arrived.
    std::uint64_t failed_units = 0;
};

/// Engine path: shard::unit_stream over the lot on a fresh private pool
/// (the manifest's threads), records appended to a store::lot_store.
path_run run_engine(const workload& w, const std::string& dir);

/// Cold start of the engine path: seconds from constructing the lot's
/// unit_stream to its first delivered record.
double engine_first_record_seconds(const workload& w);

/// The fleet run, as the traced run reads it.
struct fleet_trace {
    std::vector<bistna::telemetry::telemetry_snapshot> worker_snapshots;
    std::vector<std::string> shard_files;
};

/// Fleet path: shard::run_lot with `workers` single-thread worker
/// processes (this executable behind its worker flag), spawn and merge
/// included.  `trace` (optional) asks the workers for telemetry sidecars.
path_run run_fleet(const workload& w, const std::string& dir, const std::string& self_exe,
                   std::size_t workers, fleet_trace* trace = nullptr);

/// Daemon path: an in-process svc::service_server with a `threads`-wide
/// pool, fed by closed-loop svc::client sessions over a Unix socket.
class daemon_path {
public:
    daemon_path(const std::string& socket_path, std::size_t threads);
    ~daemon_path();

    daemon_path(const daemon_path&) = delete;
    daemon_path& operator=(const daemon_path&) = delete;

    /// Submit every request of the lot from up to `sessions` sessions, one
    /// request in flight per session; each client appends its records to a
    /// lot_store per request.  The request stores are merged afterwards
    /// (untimed) so the lot compares byte for byte with the engine's.
    path_run run(const workload& w, const std::string& dir, std::size_t sessions);

private:
    std::string socket_path_;
    std::unique_ptr<bistna::svc::service_server> server_;
};

/// Units of `path` (a store) that are missing from or differ from the
/// same position of `reference`; a store that fails to scan counts every
/// unit.
std::uint64_t divergent_units(const std::string& path, const std::string& reference,
                              std::uint64_t units);

/// Re-measure `samples` seed-chosen units of the lot on the scalar oracle
/// -- core::screen on a network_analyzer for dice, a one-lane engine for
/// dictionary items -- and compare each store::to_record encoding with the
/// reference store.  Returns the units that differ.
std::uint64_t oracle_mismatches(const workload& w, const std::string& reference,
                                std::size_t samples);

bool same_bytes(const std::string& a, const std::string& b);

} // namespace lotbench
