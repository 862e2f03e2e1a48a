// Workload definitions.  Every workload starts from the canonical manifest
// (paper low-pass mask, sigma = 0.03 process draws, default periods
// 200/32, calibration 4096, THD at 3 harmonics, 16 lanes) and varies only
// what the workload is about; every workload keeps the 16 lanes.
#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "bench.hpp"
#include "common/rng.hpp"

namespace lotbench {

namespace {

using bistna::shard::lot_manifest;
using bistna::shard::workload_kind;

lot_manifest canonical_lot(std::uint64_t seed, std::size_t threads) {
    lot_manifest m;
    m.workload = workload_kind::screening;
    m.measure_distortion = true;
    m.distortion_max_harmonic = 3;
    m.batch_lanes = 16;
    m.threads = threads;
    // Die seeds start at a seed-derived offset so a held-out seed screens
    // different dice.
    m.first_seed = 1 + bistna::derive_stream_seed(seed, 1) % 1000000000ULL;
    return m;
}

} // namespace

workload make_workload(const std::string& name, std::uint64_t seed, std::size_t threads) {
    workload w;
    w.name = name;
    w.seed = seed;
    if (name == "lot_ideal") {
        // The three-paths comparison: noiseless lane kernels, one staircase
        // render and one calibration transplanted across the lot.  A 64-die
        // request is four lane groups, spread over the pool's threads.
        lot_manifest m = canonical_lot(seed, threads);
        m.dice = 2048;
        w.job = m;
        w.request_units = 64;
    } else if (name == "lot_cmos035") {
        // The same lot on cmos035 parts: the noisy modulator branch draws
        // one gaussian per lane per sample.
        lot_manifest m = canonical_lot(seed, threads);
        m.ideal_generator = false;
        m.ideal_modulator = false;
        // 192 dice are 12 lane groups, three per engine thread and per
        // fleet worker.
        m.dice = 192;
        w.job = m;
        // Half-group requests: 24 a round, so a few rounds pool the 200
        // latency samples a p95 needs.
        w.request_units = 8;
    } else if (name == "dictionary_grid") {
        // The severity-grid dictionary of a seed-drawn nominal die: the
        // healthy reference plus 5 catalog faults x 200 grid points (1001
        // items, 63 lane groups).  Every item has its own evaluator seed, so
        // calibration is never transplanted, and fault-injected generators
        // render their own staircases.  The dictionary is one daemon request.
        lot_manifest m = canonical_lot(seed, threads);
        m.workload = workload_kind::dictionary;
        m.grid_points = 200;
        m.thd_max_harmonic = 3;
        m.nominal_seed = 1 + bistna::derive_stream_seed(seed, 10) % 1000000000ULL;
        // Manifest integers travel as JSON numbers: keep them below 2^53.
        m.eval_seed_base = bistna::derive_stream_seed(seed, 20) >> 11;
        w.job = m;
        w.request_units = 0;
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return w;
}

std::vector<request> split_requests(const workload& w) {
    std::vector<request> out;
    const lot_manifest& job = w.job;
    const std::uint64_t total = job.total_units();
    if (job.workload != workload_kind::screening || w.request_units == 0) {
        out.push_back(request{0, total, job});
        return out;
    }
    for (std::uint64_t first = 0; first < total; first += w.request_units) {
        request r{first, std::min(w.request_units, total - first), job};
        r.manifest.first_seed = job.first_seed + first;
        r.manifest.dice = r.count;
        out.push_back(std::move(r));
    }
    // Seed-derived request order (Fisher-Yates on the workload's stream).
    bistna::rng order(bistna::derive_stream_seed(w.seed, 4));
    for (std::size_t i = out.size(); i > 1; --i) {
        std::swap(out[i - 1], out[order.uniform_int(i)]);
    }
    return out;
}

double median(std::vector<double> values) {
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean(const std::vector<double>& values) {
    if (values.empty()) {
        return 0.0;
    }
    double sum = 0.0;
    for (double v : values) {
        sum += v;
    }
    return sum / static_cast<double>(values.size());
}

double quantile(std::vector<double> values, double q) {
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(values.size())));
    return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

} // namespace lotbench
