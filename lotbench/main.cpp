// lotbench: one command that runs a workload three ways (engine, fleet,
// daemon), checks every output byte for byte against the first engine
// store and a seeded sample against the scalar oracle, and prints one JSON
// result line.
//
//   lotbench --workload=NAME --seed=N --seconds=S --trace=0|1 --workdir=DIR
//            [--git-sha=SHA]
//
// --trace=0 times the three paths with telemetry detached and reports the
// end-to-end metrics; --trace=1 attaches a registry, splits the engine's
// stage spans by layer, times what the spans cannot split from outside,
// probes the machine's ceilings, and reports the per-layer metrics.  The
// executable doubles as the fleet's shard worker behind
// --lotbench-shard-worker.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common/cli.hpp"
#include "layers.hpp"
#include "paths.hpp"
#include "probes.hpp"
#include "shard/merger.hpp"
#include "shard/worker.hpp"
#include "store/lot_store.hpp"
#include "telemetry/metrics.hpp"

#ifndef LOTBENCH_BUILD_TYPE
#define LOTBENCH_BUILD_TYPE "unknown"
#endif
#ifndef LOTBENCH_COMPILER
#define LOTBENCH_COMPILER "unknown"
#endif

namespace lotbench {

namespace {

namespace fs = std::filesystem;
using bistna::telemetry::telemetry_snapshot;

constexpr std::size_t fleet_workers = 4;
// Set-up trials open every round (at least one, for this long), so their
// median samples the whole run rather than its first seconds.
constexpr double setup_seconds_per_round = 0.3;
constexpr std::size_t min_rounds = 3;
// A nearest-rank p95 over n samples leaves n - ceil(0.95 n) above it; 200
// samples leave 10.
constexpr std::size_t min_latency_samples = 200;
// A round whose daemon pass took longer than this multiple of the median
// round was stalled by the host; its requests stay out of the latency pool.
constexpr double stalled_round_factor = 1.25;
constexpr double max_triad_mib = 512.0;

struct options {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    std::string workdir;
    std::string git_sha;
};

struct outcome {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    metric_map metrics;

    void set(const std::string& name, double value, const std::string& unit) {
        metrics[name] = metric{value, unit};
    }
};

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line : line.substr(colon + 2);
        }
    }
    return "unknown";
}

std::string json_escape(const std::string& text) {
    std::string out;
    for (char c : text) {
        if (c == '"' || c == '\\') {
            out += '\\';
        }
        out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
    }
    return out;
}

double peak_rss_mb() {
    rusage self{};
    rusage children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) / 1024.0;
}

std::string keep_reference(const path_run& run, const std::string& workdir) {
    const std::string path = workdir + "/reference.store";
    fs::copy_file(run.store, path, fs::copy_options::overwrite_existing);
    return path;
}

void check_oracle(const workload& w, const std::string& reference, outcome& out) {
    constexpr std::size_t samples = 4;
    out.failed += oracle_mismatches(w, reference, samples);
    out.attempted += samples;
}

std::size_t samples_above_p95(std::size_t n) {
    return n - static_cast<std::size_t>(std::ceil(0.95 * static_cast<double>(n)));
}

/// The request latencies of every round not stalled by the host.
std::vector<double> latency_pool(const std::vector<double>& daemon_seconds,
                                 const std::vector<std::vector<double>>& request_ms) {
    const double limit = stalled_round_factor * median(daemon_seconds);
    std::vector<double> pool;
    for (std::size_t r = 0; r < request_ms.size(); ++r) {
        if (daemon_seconds[r] <= limit) {
            pool.insert(pool.end(), request_ms[r].begin(), request_ms[r].end());
        }
    }
    return pool;
}

// --- measured run (telemetry detached) --------------------------------------

void measured_run(const options& opt, const workload& w, std::size_t threads,
                  const std::string& self_exe, outcome& out) {
    daemon_path daemon(opt.workdir + "/svc.sock", threads);

    // A lot split into requests runs on until the latency pool holds
    // enough samples for its p95 (within a bounded overrun); a dictionary
    // is one request a round and pools one sample per round.
    const bool split = split_requests(w).size() > 1;
    const auto enough_latencies = [&](const std::vector<double>& daemon_seconds,
                                      const std::vector<std::vector<double>>& request_ms) {
        return !split || latency_pool(daemon_seconds, request_ms).size() >= min_latency_samples;
    };

    const double units = static_cast<double>(w.units());
    std::vector<double> rates[3];
    std::vector<double> daemon_seconds;
    std::vector<std::vector<double>> request_ms;
    std::vector<double> setups;
    std::string reference;
    const auto t0 = clock_type::now();
    for (std::size_t round = 0;
         round < min_rounds || seconds_since(t0) < opt.seconds ||
         (!enough_latencies(daemon_seconds, request_ms) && seconds_since(t0) < 3.0 * opt.seconds);
         ++round) {
        const std::string dir = opt.workdir + "/round-" + std::to_string(round);
        fs::create_directories(dir);
        // Set-up time: fresh engines from submit to first record.
        const auto setup_t0 = clock_type::now();
        do {
            setups.push_back(engine_first_record_seconds(w));
        } while (seconds_since(setup_t0) < setup_seconds_per_round);
        path_run runs[3];
        // Rotate the path order every round so no path always runs first.
        for (std::size_t p = 0; p < 3; ++p) {
            const std::size_t id = (round + p) % 3;
            runs[id] = id == 0   ? run_engine(w, dir)
                       : id == 1 ? run_fleet(w, dir, self_exe, fleet_workers)
                                 : daemon.run(w, dir, threads);
            out.attempted += w.units();
            out.failed += runs[id].failed_units;
            rates[id].push_back(units / runs[id].seconds);
        }
        daemon_seconds.push_back(runs[2].seconds);
        request_ms.push_back(runs[2].request_ms);
        std::fprintf(stderr, "lotbench: round %zu units/s: engine %.0f fleet %.0f daemon %.0f\n",
                     round, rates[0].back(), rates[1].back(), rates[2].back());
        if (round == 0) {
            reference = keep_reference(runs[0], opt.workdir);
        }
        for (const auto& run : runs) {
            out.failed += divergent_units(run.store, reference, w.units());
        }
        fs::remove_all(dir);
    }
    check_oracle(w, reference, out);

    const std::vector<double> pool = latency_pool(daemon_seconds, request_ms);
    std::size_t requests = 0;
    for (const auto& round : request_ms) {
        requests += round.size();
    }
    std::fprintf(stderr,
                 "lotbench: %zu rounds, %zu set-up trials; request latency pool: %zu of %zu "
                 "requests (stalled rounds left out), %zu samples above p95\n",
                 rates[0].size(), setups.size(), pool.size(), requests,
                 samples_above_p95(pool.size()));
    out.set("engine_units_per_s", median(rates[0]), "1/s");
    out.set("fleet_units_per_s", median(rates[1]), "1/s");
    out.set("daemon_units_per_s", median(rates[2]), "1/s");
    // The mean, not the p50: a one-group request runs on one vCPU, and its
    // latency is bimodal with the host's load on that core (about 105 vs
    // 165 ms on lot_cmos035), so a median flips between the modes.
    out.set("request_mean_ms", mean(pool), "ms");
    out.set("request_p95_ms", quantile(pool, 0.95), "ms");
    out.set("setup_s", median(setups), "s");
    out.set("peak_rss_mb", peak_rss_mb(), "MiB");
}

// --- traced run (registry attached, layer timings, ceilings) ---------------

double span_max_ns(const std::vector<telemetry_snapshot>& snapshots, const char* name) {
    double longest = 0.0;
    for (const auto& snapshot : snapshots) {
        for (const auto& span : snapshot.spans) {
            if (span.name == name) {
                longest = std::max(longest, static_cast<double>(span.duration_ns));
            }
        }
    }
    return longest;
}

double histogram_quantile(const telemetry_snapshot& snapshot, const char* name, double q) {
    const auto* h = snapshot.find_histogram(name);
    return h == nullptr ? 0.0 : static_cast<double>(h->quantile_upper_bound(q));
}

void traced_run(const options& opt, const workload& w, std::size_t threads,
                const std::string& self_exe, outcome& out) {
    const machine_ceilings machine = measure_ceilings(threads, max_triad_mib);
    daemon_path daemon(opt.workdir + "/svc.sock", threads);
    const double units = static_cast<double>(w.units());
    const auto& job = w.job;

    std::string reference;
    const auto tally = [&](const path_run& run) {
        out.attempted += w.units();
        out.failed += run.failed_units + divergent_units(run.store, reference, w.units());
    };

    // Tracing overhead: untraced and traced engine lots alternate.
    bistna::telemetry::metric_registry engine_registry;
    std::vector<double> untraced;
    std::vector<double> traced;
    double traced_seconds = 0.0;
    const auto t0 = clock_type::now();
    for (std::size_t pair = 0; pair < 2 || seconds_since(t0) < 0.5 * opt.seconds; ++pair) {
        const std::string dir = opt.workdir + "/pair-" + std::to_string(pair);
        fs::create_directories(dir + "/plain");
        fs::create_directories(dir + "/metered");
        const path_run plain = run_engine(w, dir + "/plain");
        path_run metered;
        {
            bistna::telemetry::registry_scope scope(engine_registry);
            metered = run_engine(w, dir + "/metered");
        }
        untraced.push_back(units / plain.seconds);
        traced.push_back(units / metered.seconds);
        traced_seconds += metered.seconds;
        if (pair == 0) {
            reference = keep_reference(plain, opt.workdir);
        }
        tally(plain);
        tally(metered);
        fs::remove_all(dir);
    }

    // One traced fleet lot (worker sidecars) and one traced daemon lot.
    const std::string dir = opt.workdir + "/traced";
    fs::create_directories(dir);
    fleet_trace fleet;
    bistna::telemetry::metric_registry daemon_registry;
    const path_run fleet_run = run_fleet(w, dir, self_exe, fleet_workers, &fleet);
    path_run daemon_run;
    {
        bistna::telemetry::registry_scope scope(daemon_registry);
        daemon_run = daemon.run(w, dir, threads);
    }
    tally(fleet_run);
    tally(daemon_run);

    // Merge replay on the fleet's shard files.
    double merge_ns_per_record = 0.0;
    try {
        const auto merge_t0 = clock_type::now();
        const auto merged = bistna::shard::merge_shard_stores(
            fleet.shard_files, dir + "/merge-replay.store", job.record_id(0), w.units());
        merge_ns_per_record = 1e9 * seconds_since(merge_t0) /
                              static_cast<double>(std::max<std::uint64_t>(1, merged.records_merged));
    } catch (const std::exception& e) {
        std::fprintf(stderr, "lotbench: merge replay failed: %s\n", e.what());
    }
    if (!same_bytes(dir + "/merge-replay.store", reference)) {
        std::fprintf(stderr, "lotbench: merge replay diverged from the reference\n");
        out.failed += w.units();
    }

    // store::to_record re-encoding the engine's records must give them
    // back byte for byte.
    const auto records = bistna::store::lot_store::scan(reference);
    const encode_timing encode = time_encode(records, job.workload);
    out.attempted += records.size();
    out.failed += encode.mismatches;
    if (encode.mismatches > 0) {
        std::fprintf(stderr, "lotbench: %llu re-encoded records differ from the engine's\n",
                     static_cast<unsigned long long>(encode.mismatches));
    }
    const kernel_timings kernels = time_kernels(job);
    const io_timings io = time_io(records, dir + "/append.store", store_flush_interval);
    const request_timing request = time_small_request(job, threads);
    check_oracle(w, reference, out);

    const auto engine_snapshot = engine_registry.snapshot();
    const auto daemon_snapshot = daemon_registry.snapshot();
    const stage_breakdown stages = engine_stages(engine_snapshot);
    const double traced_units = units * static_cast<double>(traced.size());

    // The engine's stages, split by the acquisitions nested in them.
    const double signature_ns = (stages.calibrate_acq_ns + stages.evaluate_acq_ns) / traced_units;
    const double thd_ns = stages.thd_acq_ns / traced_units;
    const double calibration_ns = (stages.calibrate_ns - stages.calibrate_acq_ns) / traced_units;
    const double render_ns =
        (stages.render_ns + stages.thd_ns - stages.thd_acq_ns) / traced_units;
    const double report_ns = (stages.evaluate_ns - stages.evaluate_acq_ns) / traced_units;
    out.set("eval.signature_ns_per_unit", signature_ns, "ns");
    out.set("eval.thd_ns_per_unit", thd_ns, "ns");
    out.set("eval.calibration_ns_per_unit", calibration_ns, "ns");
    out.set("dut.render_ns_per_unit", render_ns, "ns");
    out.set("core.report_ns_per_unit", report_ns, "ns");
    out.set("store.encode_ns_per_record", encode.ns_per_record, "ns");

    out.set("dut.bank_ns_per_sample", kernels.dut_bank_ns_per_sample, "ns");
    out.set("sd.bank_ns_per_sample", kernels.sd_bank_ns_per_sample, "ns");
    out.set("sd.grounded_ns_per_sample", kernels.sd_grounded_ns_per_sample, "ns");
    out.set("common.rng.gaussian_ns", kernels.gaussian_ns, "ns");
    out.set("gen.render_us", kernels.render_us, "us");

    const double hits = static_cast<double>(engine_snapshot.counter("engine.stimulus.hits"));
    const double misses = static_cast<double>(engine_snapshot.counter("engine.stimulus.misses"));
    out.set("core.stimulus_cache.hit_ratio", hits / std::max(1.0, hits + misses), "ratio");
    out.set("core.job_queue.wait_p50_us",
            histogram_quantile(engine_snapshot, "job_queue.task.wait_ns", 0.5) / 1e3, "us");
    const auto* run_ns = engine_snapshot.find_histogram("job_queue.task.run_ns");
    out.set("core.job_queue.busy_frac",
            run_ns == nullptr ? 0.0
                              : static_cast<double>(run_ns->sum) /
                                    (1e9 * traced_seconds * static_cast<double>(threads)),
            "ratio");
    const auto* flush = engine_snapshot.find_histogram("store.flush_ns");
    out.set("store.flush_ns_mean", flush == nullptr ? 0.0 : flush->mean(), "ns");

    out.set("store.append_ns_per_record", io.append_ns_per_record, "ns");
    out.set("store.bytes_per_unit", static_cast<double>(fs::file_size(reference)) / units, "B");
    out.set("svc.frame_ns_per_record", io.frame_ns_per_record, "ns");
    out.set("svc.socket_ns_per_record", io.socket_ns_per_record, "ns");
    out.set("svc.request_setup_ms", request.median_ms, "ms");
    out.set("svc.admission_wait_p50_us",
            histogram_quantile(daemon_snapshot, "svc.admission.wait_ns", 0.5) / 1e3, "us");
    out.set("svc.request_latency_p50_ms",
            histogram_quantile(daemon_snapshot, "svc.request.latency_ns", 0.5) / 1e6, "ms");

    out.set("shard.merge_ns_per_record", merge_ns_per_record, "ns");
    out.set("shard.overhead_frac",
            1.0 - span_max_ns(fleet.worker_snapshots, "shard.stream") / (1e9 * fleet_run.seconds),
            "ratio");

    out.set("machine.stream_triad_gbps", machine.triad_gbps, "GB/s");
    out.set("machine.stream_triad_mib", machine.triad_mib, "MiB");
    out.set("machine.llc_mib", machine.llc_mib, "MiB");
    out.set("machine.fma_gflops", machine.fma_gflops, "GFLOP/s");
    out.set("machine.fma_gflops_1core", machine.fma_gflops_1core, "GFLOP/s");

    // Computed per-lane-sample work of the two kernels at the job's lane
    // width.  DUT bank: the order-n ZOH update x' = Ad x + Bd u,
    // y = C x + D u is 2(n+1)^2 flops, writing one 8-byte output (the
    // broadcast input is shared by the lanes).  Modulator bank: 14 flops per
    // sample (comparator threshold 3, modulation 2, increment 3, leaky
    // update 3, clip count 1, counter 2), reading one 8-byte lane-major
    // input plus the two shared signs.
    const double lanes = static_cast<double>(kernels.lanes);
    const double n = static_cast<double>(kernels.dut_order);
    const double dut_flops = 2.0 * (n + 1.0) * (n + 1.0);
    const double dut_bytes = 8.0 + 8.0 / lanes;
    const double sd_flops = 14.0;
    const double sd_bytes = 8.0 + 16.0 / lanes;
    out.set("dut.bank.flops_per_sample", dut_flops, "flop");
    out.set("dut.bank.bytes_per_sample", dut_bytes, "B");
    out.set("sd.bank.flops_per_sample", sd_flops, "flop");
    out.set("sd.bank.bytes_per_sample", sd_bytes, "B");
    // The kernels run on one core: their flop rate over the one-core FMA
    // peak, and their byte rate over one core's share of triad bandwidth
    // (above 1 when the working set stays in cache).
    const double core_bandwidth = machine.triad_gbps / static_cast<double>(threads);
    out.set("dut.bank.ceiling_frac",
            dut_flops / kernels.dut_bank_ns_per_sample / machine.fma_gflops_1core, "ratio");
    out.set("sd.bank.ceiling_frac",
            sd_flops / kernels.sd_bank_ns_per_sample / machine.fma_gflops_1core, "ratio");
    out.set("dut.bank.bandwidth_frac",
            dut_bytes / kernels.dut_bank_ns_per_sample / core_bandwidth, "ratio");
    out.set("sd.bank.bandwidth_frac",
            sd_bytes / kernels.sd_bank_ns_per_sample / core_bandwidth, "ratio");
    out.set("trace.engine_rate_ratio", median(untraced) / median(traced), "ratio");

    // Where the engine's time went, against this workload's prediction.
    struct layer {
        const char* name;
        double ns;
    };
    std::vector<layer> layers = {
        {"eval.signature (sigma-delta + counters)", signature_ns},
        {"eval.thd", thd_ns},
        {"eval.calibration", calibration_ns},
        {"dut.render", render_ns},
        {"core.report", report_ns},
        {"store.encode", encode.ns_per_record},
    };
    double total = 0.0;
    for (const auto& l : layers) {
        total += l.ns;
    }
    std::sort(layers.begin(), layers.end(),
              [](const layer& a, const layer& b) { return a.ns > b.ns; });
    std::fprintf(stderr, "lotbench: engine spans over %zu traced lots (%.0f units); layer shares:",
                 traced.size(), traced_units);
    for (const auto& l : layers) {
        std::fprintf(stderr, " %s %.1f%%", l.name, 100.0 * l.ns / total);
    }
    std::fprintf(stderr, "; %llu spans dropped, %.2f%% of acquisition time outside a stage\n",
                 static_cast<unsigned long long>(stages.dropped_spans),
                 100.0 * stages.stray_acq_ns /
                     std::max(1.0, stages.stray_acq_ns + stages.calibrate_acq_ns +
                                       stages.evaluate_acq_ns + stages.thd_acq_ns));
    if (kernels.sd_noisy) {
        std::fprintf(stderr,
                     "lotbench: noisy modulator bank %.2f ns/lane-sample, of which one "
                     "rng::gaussian draw is %.2f ns (%.0f%%)\n",
                     kernels.sd_bank_ns_per_sample, kernels.gaussian_ns,
                     100.0 * kernels.gaussian_ns / kernels.sd_bank_ns_per_sample);
    }
    // A 16-unit request split by its own spans.  Per-request set-up is
    // what runs outside the stages (engine, tables, caches, dispatch) plus
    // the calibration a fresh engine cannot transplant.
    const auto& rs = request.stages;
    const double trial_ns = 1e6 * request.mean_ms * static_cast<double>(request.trials);
    const double in_stages = rs.render_ns + rs.calibrate_ns + rs.evaluate_ns + rs.thd_ns;
    const double request_setup_ns = trial_ns - in_stages + rs.calibrate_ns - rs.calibrate_acq_ns;
    const double request_acq_ns = rs.calibrate_acq_ns + rs.evaluate_acq_ns + rs.thd_acq_ns;
    const double request_render_ns = rs.render_ns + rs.thd_ns - rs.thd_acq_ns;
    std::fprintf(stderr,
                 "lotbench: 16-unit request: %.2f ms to first record; per-request set-up "
                 "%.0f%% (calibration %.0f%%), sigma-delta acquisitions %.0f%%, render %.0f%%, "
                 "report %.0f%%\n",
                 request.median_ms, 100.0 * request_setup_ns / trial_ns,
                 100.0 * (rs.calibrate_ns - rs.calibrate_acq_ns) / trial_ns,
                 100.0 * request_acq_ns / trial_ns, 100.0 * request_render_ns / trial_ns,
                 100.0 * (rs.evaluate_ns - rs.evaluate_acq_ns) / trial_ns);
    std::fprintf(stderr,
                 "lotbench: machine: triad %.1f GB/s over %.0f MiB (LLC %.0f MiB, %.2fx), FMA "
                 "%.1f GFLOP/s (%.1f on one core); dut bank order %zu%s at %zu lanes, computed "
                 "%.0f flop + %.1f B per lane-sample\n",
                 machine.triad_gbps, machine.triad_mib, machine.llc_mib,
                 machine.llc_mib > 0.0 ? machine.triad_mib / machine.llc_mib : 0.0,
                 machine.fma_gflops, machine.fma_gflops_1core, kernels.dut_order,
                 kernels.dut_banked ? "" : " (not bankable: scalar step_block)", kernels.lanes,
                 dut_flops, dut_bytes);
    std::fprintf(stderr, "lotbench: tracing overhead: untraced %.1f vs traced %.1f units/s\n",
                 median(untraced), median(traced));
}

options parse(int argc, char** argv) {
    options opt;
    opt.workload = bistna::flag_text(argc, argv, "workload");
    opt.seed = bistna::flag_u64(argc, argv, "seed", 0);
    opt.seconds = bistna::flag_value(argc, argv, "seconds", 10.0);
    opt.trace = bistna::flag_value(argc, argv, "trace", 0.0) != 0.0;
    opt.workdir = bistna::flag_text(argc, argv, "workdir");
    opt.git_sha = bistna::flag_text(argc, argv, "git-sha");
    if (opt.workload.empty() || opt.workdir.empty()) {
        throw std::invalid_argument(
            "usage: lotbench --workload=NAME --seed=N --seconds=S --trace=0|1 --workdir=DIR");
    }
    return opt;
}

void print_result(const outcome& out, bool correct) {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
                correct ? "true" : "false", static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed));
    bool first = true;
    for (const auto& [name, m] : out.metrics) {
        std::printf("%s\"%s\": {\"value\": %.12g, \"unit\": \"%s\"}", first ? "" : ", ",
                    name.c_str(), std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
        first = false;
    }
    std::printf("}}\n");
}

} // namespace

int run(int argc, char** argv) {
    const options opt = parse(argc, argv);
    const std::string build_type = LOTBENCH_BUILD_TYPE;
#ifndef NDEBUG
    const bool asserts = true;
#else
    const bool asserts = false;
#endif
    if (build_type != "Release" || asserts) {
        std::fprintf(stderr, "lotbench: refusing to report from a %s build\n",
                     build_type.c_str());
        return 3;
    }
    const std::size_t threads = std::max(1u, std::thread::hardware_concurrency());
    const workload w = make_workload(opt.workload, opt.seed, threads);
    fs::create_directories(opt.workdir);
    const std::string self_exe = fs::read_symlink("/proc/self/exe").string();

    std::printf("{\"stamp\": {\"nproc\": %zu, \"cpu\": \"%s\", \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"git_sha\": \"%s\", \"workload\": \"%s\", "
                "\"seed\": %llu, \"units\": %llu}}\n",
                threads, json_escape(cpu_model()).c_str(), json_escape(LOTBENCH_COMPILER).c_str(),
                build_type.c_str(), json_escape(opt.git_sha.empty() ? "unknown" : opt.git_sha).c_str(),
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                static_cast<unsigned long long>(w.units()));
    std::fflush(stdout);

    outcome out;
    if (opt.trace) {
        traced_run(opt, w, threads, self_exe, out);
    } else {
        measured_run(opt, w, threads, self_exe, out);
    }
    bool correct = out.failed == 0 && out.attempted > 0;
    for (const auto& [name, m] : out.metrics) {
        if (!std::isfinite(m.value)) {
            std::fprintf(stderr, "lotbench: metric %s is not finite\n", name.c_str());
            correct = false;
        }
    }
    print_result(out, correct);
    return 0;
}

} // namespace lotbench

int main(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--lotbench-shard-worker") == 0) {
            return bistna::shard::worker_main(argc, argv);
        }
    }
    try {
        return lotbench::run(argc, argv);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "lotbench: %s\n", e.what());
        return 1;
    }
}
