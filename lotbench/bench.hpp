// The lot benchmark: one screening lot (or severity-grid dictionary) run
// three ways -- the in-process engine, the shard fleet and the
// screening daemon -- with the outputs checked byte for byte.
//
// This header holds what the parts share: workload definitions, the
// daemon's request split, timing and order statistics, and the metric sink
// the final JSON line is printed from.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "shard/manifest.hpp"

namespace lotbench {

using clock_type = std::chrono::steady_clock;

inline double seconds_since(clock_type::time_point t0) {
    return std::chrono::duration<double>(clock_type::now() - t0).count();
}

/// A workload: the lot's manifest plus how the daemon path splits it into
/// requests.
struct workload {
    std::string name;
    std::uint64_t seed = 0;
    bistna::shard::lot_manifest job;
    /// Daemon request size for a screening lot (dice); 0 submits the lot
    /// whole.  A dictionary is always submitted whole: its manifest has no
    /// sub-range form.
    std::uint64_t request_units = 0;

    std::uint64_t units() const { return job.total_units(); }
};

/// Build workload `name` for `seed`: die seeds, dictionary seeds and the
/// daemon's request order all derive from it.  `threads` is the engine
/// pool width written into every manifest.  Throws on an unknown name.
workload make_workload(const std::string& name, std::uint64_t seed, std::size_t threads);

/// One daemon request: units [first, first + count) of the lot, as the
/// manifest a client submits.
struct request {
    std::uint64_t first = 0;
    std::uint64_t count = 0;
    bistna::shard::lot_manifest manifest;
};

/// The daemon's requests for the whole lot, in the seed-derived order the
/// sessions pull them.
std::vector<request> split_requests(const workload& w);

double median(std::vector<double> values);
double mean(const std::vector<double>& values);
/// Nearest-rank quantile (q in (0, 1]) of a non-empty sample.
double quantile(std::vector<double> values, double q);

struct metric {
    double value = 0.0;
    std::string unit;
};
using metric_map = std::map<std::string, metric>;

} // namespace lotbench
