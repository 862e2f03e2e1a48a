#include "paths.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iterator>
#include <thread>

#include "common/rng.hpp"
#include "core/network_analyzer.hpp"
#include "core/screening.hpp"
#include "shard/coordinator.hpp"
#include "shard/merger.hpp"
#include "shard/unit_stream.hpp"
#include "store/lot_store.hpp"
#include "store/records.hpp"
#include "svc/client.hpp"
#include "svc/server.hpp"

namespace lotbench {

namespace {

using bistna::shard::lot_manifest;
using bistna::shard::workload_kind;

void log_failure(const char* path, const std::string& what) {
    std::fprintf(stderr, "lotbench: %s path failed: %s\n", path, what.c_str());
}

} // namespace

path_run run_engine(const workload& w, const std::string& dir) {
    path_run run;
    const std::uint64_t total = w.units();
    run.store = dir + "/engine.store";
    const auto t0 = clock_type::now();
    try {
        auto out = bistna::store::lot_store::create(run.store, {store_flush_interval});
        bistna::shard::unit_stream stream(w.job, 0, total);
        while (auto item = stream.next()) {
            out.append(item->record);
        }
        out.flush();
        if (auto error = stream.error()) {
            std::rethrow_exception(error);
        }
        run.failed_units += total - out.records_appended();
    } catch (const std::exception& e) {
        log_failure("engine", e.what());
        run.failed_units += total;
    }
    run.seconds = seconds_since(t0);
    return run;
}

double engine_first_record_seconds(const workload& w) {
    const lot_manifest& job = w.job;
    const auto t0 = clock_type::now();
    bistna::shard::unit_stream stream(job, 0, job.total_units());
    const auto first = stream.next();
    const double seconds = seconds_since(t0);
    if (!first) {
        throw std::runtime_error("cold-start stream delivered no record");
    }
    stream.cancel();
    return seconds;
}

path_run run_fleet(const workload& w, const std::string& dir, const std::string& self_exe,
                   std::size_t workers, fleet_trace* trace) {
    path_run run;
    lot_manifest job = w.job;
    job.threads = 1;
    run.store = dir + "/fleet.store";

    bistna::shard::supervisor_options options;
    options.worker_command = {self_exe, "--lotbench-shard-worker"};
    options.shards = workers;
    options.max_attempts = 1; // a retried shard would hide a failure
    options.straggler_timeout_seconds = 120.0;
    options.shard_dir = dir + "/fleet";
    options.flush_interval = store_flush_interval;
    options.telemetry_sidecars = trace != nullptr;
    const auto t0 = clock_type::now();
    try {
        auto report = bistna::shard::run_lot(job, run.store, options);
        if (trace != nullptr) {
            trace->shard_files = report.shards.shard_files;
            trace->worker_snapshots = std::move(report.worker_snapshots);
        }
    } catch (const std::exception& e) {
        log_failure("fleet", e.what());
        run.failed_units += job.total_units();
    }
    run.seconds = seconds_since(t0);
    return run;
}

daemon_path::daemon_path(const std::string& socket_path, std::size_t threads)
    : socket_path_(socket_path) {
    bistna::svc::server_options options;
    options.listen_path = socket_path;
    options.worker_threads = threads;
    options.max_active_jobs = threads;
    options.admission_capacity = 64;
    options.session_quota = 2;
    server_ = std::make_unique<bistna::svc::service_server>(std::move(options));
    server_->start();
}

daemon_path::~daemon_path() { server_->stop(); }

path_run daemon_path::run(const workload& w, const std::string& dir, std::size_t sessions) {
    const std::vector<request> requests = split_requests(w);
    const std::size_t n_sessions = std::min(sessions, requests.size());
    std::vector<std::unique_ptr<bistna::svc::client>> clients;
    for (std::size_t s = 0; s < n_sessions; ++s) {
        clients.push_back(std::make_unique<bistna::svc::client>(socket_path_));
    }

    std::vector<double> latency_ms(requests.size(), -1.0);
    std::vector<std::string> request_stores(requests.size());
    std::vector<std::uint64_t> failed(requests.size(), 0);
    std::atomic<std::size_t> next{0};

    path_run run;
    const auto t0 = clock_type::now();
    {
        std::vector<std::jthread> threads;
        for (std::size_t s = 0; s < n_sessions; ++s) {
            threads.emplace_back([&, s] {
                bistna::svc::client& client = *clients[s];
                std::uint64_t id = 0;
                for (;;) {
                    const std::size_t i = next.fetch_add(1);
                    if (i >= requests.size()) {
                        return;
                    }
                    const request& r = requests[i];
                    try {
                        const auto submitted = clock_type::now();
                        client.submit(++id, r.manifest);
                        const auto records = client.collect(id);
                        latency_ms[i] = 1e3 * seconds_since(submitted);
                        const std::string path =
                            dir + "/daemon-req-" + std::to_string(i) + ".store";
                        auto out = bistna::store::lot_store::create(path, {store_flush_interval});
                        for (const auto& record : records) {
                            out.append(record);
                        }
                        out.flush();
                        request_stores[i] = path;
                        failed[i] = r.count - std::min<std::uint64_t>(r.count, records.size());
                    } catch (const std::exception& e) {
                        log_failure("daemon", e.what());
                        failed[i] = r.count;
                    }
                }
            });
        }
    }
    run.seconds = seconds_since(t0);

    for (std::size_t i = 0; i < requests.size(); ++i) {
        run.failed_units += failed[i];
        if (latency_ms[i] >= 0.0) {
            run.request_ms.push_back(latency_ms[i]);
        }
    }
    // Fold the request stores into one store (untimed): the merge checks
    // for holes and duplicates and writes in id order.
    std::vector<std::string> inputs;
    for (const auto& path : request_stores) {
        if (!path.empty()) {
            inputs.push_back(path);
        }
    }
    run.store = dir + "/daemon.store";
    try {
        bistna::shard::merge_shard_stores(inputs, run.store, w.job.record_id(0), w.units());
    } catch (const std::exception& e) {
        log_failure("daemon merge", e.what());
    }
    for (const auto& input : inputs) {
        std::remove(input.c_str());
    }
    return run;
}

bool same_bytes(const std::string& a, const std::string& b) {
    std::ifstream fa(a, std::ios::binary);
    std::ifstream fb(b, std::ios::binary);
    if (!fa || !fb) {
        return false;
    }
    const std::vector<char> bytes_a{std::istreambuf_iterator<char>(fa),
                                    std::istreambuf_iterator<char>()};
    const std::vector<char> bytes_b{std::istreambuf_iterator<char>(fb),
                                    std::istreambuf_iterator<char>()};
    return bytes_a == bytes_b;
}

std::uint64_t divergent_units(const std::string& path, const std::string& reference,
                              std::uint64_t units) {
    if (same_bytes(path, reference)) {
        return 0;
    }
    std::vector<bistna::store::record> got;
    std::vector<bistna::store::record> want;
    try {
        got = bistna::store::lot_store::scan(path);
        want = bistna::store::lot_store::scan(reference);
    } catch (const std::exception&) {
        return units;
    }
    std::uint64_t bad = 0;
    for (std::uint64_t i = 0; i < units; ++i) {
        if (i >= got.size() || i >= want.size() || got[i] != want[i]) {
            ++bad;
        }
    }
    return std::max<std::uint64_t>(bad, 1); // differing bytes never pass
}

std::uint64_t oracle_mismatches(const workload& w, const std::string& reference,
                                std::size_t samples) {
    bistna::rng pick(bistna::derive_stream_seed(w.seed, 5));
    const lot_manifest& job = w.job;
    const auto expected = bistna::store::lot_store::scan(reference);
    std::uint64_t bad = 0;
    for (std::size_t s = 0; s < samples; ++s) {
        const std::uint64_t unit = pick.uniform_int(job.total_units());
        bistna::store::record got;
        if (job.workload == workload_kind::screening) {
            const std::uint64_t die = job.record_id(unit);
            auto board = job.make_factory()(die);
            bistna::core::network_analyzer analyzer(board, job.make_settings());
            const auto report = bistna::core::screen(analyzer, job.make_mask(),
                                                     job.make_screening_options());
            got = bistna::store::to_record(report, die);
        } else {
            lot_manifest single = job;
            single.batch_lanes = 1;
            single.threads = 1;
            bistna::shard::unit_stream stream(single, unit, 1);
            if (auto item = stream.next()) {
                got = std::move(item->record);
            }
        }
        if (unit >= expected.size() || got != expected[unit]) {
            std::fprintf(stderr, "lotbench: oracle mismatch at unit %llu\n",
                         static_cast<unsigned long long>(unit));
            ++bad;
        }
    }
    return bad;
}

} // namespace lotbench
