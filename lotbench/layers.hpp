// The traced run's per-layer figures.
//
// The stage breakdown comes from the engine's own trace spans: each
// eval.modulate acquisition span is charged to the engine.* stage span
// that encloses it on the same thread, which splits every stage into its
// sigma-delta acquisitions and the rest.  What the spans cannot split is
// timed here from outside: store::to_record re-encoding the engine's own
// records (which must come out byte for byte), the kernels stand-alone on
// a lane group of the workload's width, the store, the service protocol
// and a small request's time to first record against its own spans.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "shard/manifest.hpp"
#include "store/format.hpp"
#include "telemetry/snapshot.hpp"

namespace lotbench {

/// Engine stage totals (ns) from one registry's spans.  `*_acq_ns` is the
/// eval.modulate time nested inside that stage.
struct stage_breakdown {
    double render_ns = 0.0;
    double calibrate_ns = 0.0;
    double calibrate_acq_ns = 0.0;
    double evaluate_ns = 0.0;
    double evaluate_acq_ns = 0.0;
    double thd_ns = 0.0;
    double thd_acq_ns = 0.0;
    double stray_acq_ns = 0.0;       ///< eval.modulate outside every engine.* span
    std::uint64_t dropped_spans = 0; ///< span-ring overflow across threads
};

stage_breakdown engine_stages(const bistna::telemetry::telemetry_snapshot& snapshot);

struct encode_timing {
    double ns_per_record = 0.0;
    /// Records whose re-encoding differs from the engine's bytes.
    std::uint64_t mismatches = 0;
};

/// Decode each of the engine's records into its result struct and time
/// store::to_record encoding it back; every re-encoding must equal the
/// original record.
encode_timing time_encode(const std::vector<bistna::store::record>& records,
                          bistna::shard::workload_kind kind);

struct kernel_timings {
    std::size_t lanes = 0;                ///< the job's batch_lanes (capped at its units)
    double render_us = 0.0;               ///< cold stimulus_record render
    double dut_bank_ns_per_sample = 0.0;  ///< per lane-sample
    std::size_t dut_order = 0;
    bool dut_banked = false;              ///< false: the DUTs fell back to scalar step_block
    double sd_bank_ns_per_sample = 0.0;   ///< accumulate_lane_major, per lane-sample
    double sd_grounded_ns_per_sample = 0.0;
    bool sd_noisy = false;
    double gaussian_ns = 0.0;             ///< one rng::gaussian draw
};

/// Time the kernels stand-alone on the boards and modulator of `job`'s
/// first lane group, at the job's own lane width.
kernel_timings time_kernels(const bistna::shard::lot_manifest& job);

struct io_timings {
    double append_ns_per_record = 0.0;
    double frame_ns_per_record = 0.0;
    double socket_ns_per_record = 0.0;
};

/// Store append (at `flush_interval`), svc framing and a socketpair hop
/// over `records`; `scratch_path` is a temporary store file.  Throws when a
/// framed record does not decode back to itself.
io_timings time_io(const std::vector<bistna::store::record>& records,
                   const std::string& scratch_path, std::size_t flush_interval);

struct request_timing {
    double median_ms = 0.0; ///< unit_stream construction to first record
    double mean_ms = 0.0;
    std::size_t trials = 0;
    stage_breakdown stages; ///< the trials' engine spans, summed
};

/// A 16-unit request, the way the daemon runs one: a fresh unit_stream on
/// a shared pool of `threads`, timed to its first record, with a registry
/// attached so the request's own stage spans split its time.
request_timing time_small_request(const bistna::shard::lot_manifest& job,
                                  std::size_t threads);

} // namespace lotbench
