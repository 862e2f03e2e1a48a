// Multi-process shard runner: fan a multi-thousand-die screening lot
// across 4 worker processes and compare wall clock against 1 worker
// running the identical lot -- the process-level scaling story on top of
// the in-process lane-major executor.  Gates:
//
//   * >= 1.7x full-lot wall clock at 4 workers vs 1 worker (each worker
//     single-threaded, so the ratio isolates process fan-out + merge
//     overhead, not thread-pool scaling);
//   * the 4-way merged store is BYTE-IDENTICAL to the 1-worker store.
//
// Writes the measurement to BENCH_shard_runner.json (or argv[1]) so the
// per-PR perf trajectory has a multi-process series.
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>

#include "bench_util.hpp"
#include "shard/coordinator.hpp"

namespace {

using namespace bistna;

constexpr std::uint64_t kDice = 4000;

/// Lot-scale settings: short acquisitions with the grounded offset
/// calibration still the dominant per-die term.
shard::lot_manifest lot_manifest_for_bench() {
    shard::lot_manifest manifest;
    manifest.sigma = 0.02;
    manifest.periods = 48;
    manifest.settle_periods = 8;
    manifest.calibration_periods = 1024;
    manifest.dice = kDice;
    manifest.first_seed = 1;
    // One thread per worker: the bench measures PROCESS fan-out, so the
    // single-worker side must not quietly use every core itself.
    manifest.threads = 1;
    manifest.batch_lanes = 8;
    return manifest;
}

struct fleet_timing {
    double seconds = 0.0;
    std::size_t retries = 0;
    std::uint64_t records = 0;
};

fleet_timing run_fleet(const shard::lot_manifest& manifest,
                       const std::string& worker, const std::string& dir,
                       const std::string& out, std::size_t workers) {
    shard::supervisor_options options;
    options.worker_command = {worker};
    options.shards = workers;
    options.max_processes = workers;
    options.shard_dir = dir;

    const auto start = std::chrono::steady_clock::now();
    const auto report = shard::run_lot(manifest, out, options);
    fleet_timing timing;
    timing.seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    timing.retries = report.shards.retries;
    timing.records = report.merge.records_merged;
    return timing;
}

std::string read_bytes(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void write_json(const std::string& path, const fleet_timing& single,
                const fleet_timing& sharded, double speedup, bool identical) {
    std::ofstream out(path);
    if (!out) {
        std::cerr << "WARNING: could not write " << path << "\n";
        return;
    }
    out << "{\n"
        << "  \"bench\": \"shard_runner\",\n"
        << "  \"dice\": " << kDice << ",\n"
        << "  \"workers_single\": 1,\n"
        << "  \"workers_sharded\": 4,\n"
        << "  \"single_seconds\": " << single.seconds << ",\n"
        << "  \"single_dice_per_second\": "
        << static_cast<double>(kDice) / single.seconds << ",\n"
        << "  \"sharded_seconds\": " << sharded.seconds << ",\n"
        << "  \"sharded_dice_per_second\": "
        << static_cast<double>(kDice) / sharded.seconds << ",\n"
        << "  \"speedup\": " << speedup << ",\n"
        << "  \"retries\": " << sharded.retries << ",\n"
        << "  \"byte_identical\": " << (identical ? "true" : "false") << "\n"
        << "}\n";
    std::cout << "perf record written to " << path << "\n";
}

} // namespace

int main(int argc, char** argv) {
    bench::banner("multi-process shard runner",
                  "4000-die screening lot: 4 single-threaded worker processes "
                  "vs 1, merged store checked byte-identical");

    const auto self_dir = std::filesystem::path(argv[0]).parent_path();
    const std::string worker = (self_dir / "shard_worker").string();
    if (!std::filesystem::exists(worker)) {
        std::cerr << "FAILURE: shard_worker binary not found next to the bench ("
                  << worker << ")\n";
        return 1;
    }

    const std::string dir = "/tmp/bistna_bench_shard_runner";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const auto manifest = lot_manifest_for_bench();

    const auto single =
        run_fleet(manifest, worker, dir + "/single", dir + "/single.store", 1);
    const auto sharded =
        run_fleet(manifest, worker, dir + "/sharded", dir + "/sharded.store", 4);

    const bool identical =
        read_bytes(dir + "/single.store") == read_bytes(dir + "/sharded.store") &&
        single.records == kDice && sharded.records == kDice;
    const double speedup =
        sharded.seconds > 0.0 ? single.seconds / sharded.seconds : 0.0;

    std::cout << "\n" << kDice << "-die lot, 1 thread x 8 lanes per worker:\n"
              << "  1 worker process:  " << single.seconds << " s\n"
              << "  4 worker processes: " << sharded.seconds << " s ("
              << sharded.retries << " retries)\n"
              << "  speedup: " << speedup << "x\n"
              << "  merged store byte-identical: " << (identical ? "YES" : "NO")
              << "\n";

    write_json(argc > 1 ? argv[1] : "BENCH_shard_runner.json", single, sharded,
               speedup, identical);
    std::filesystem::remove_all(dir);

    bench::footnote("Workers are full OS processes sharing nothing but the "
                    "manifest file; the merged store's bytes equal the "
                    "single-worker store's because every worker emits its "
                    "range's frames in global die order.");

    bool failed = false;
    if (!identical) {
        std::cerr << "FAILURE: 4-way merged store diverged from the 1-worker store\n";
        failed = true;
    }
    if (speedup < 1.7) {
        std::cerr << "FAILURE: expected >= 1.7x at 4 workers, got " << speedup
                  << "x\n";
        failed = true;
    }
    return failed ? 1 : 0;
}
