// Dictionary construction: sweep every catalog fault's severity over a
// grid and acquire the full signature at each grid point, fanned out
// through core::sweep_engine -- with batch_lanes > 1 one lane group
// measures many severities in lockstep, every item bit-identical to the
// scalar network_analyzer on its board.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/job_queue.hpp"
#include "core/network_analyzer.hpp"
#include "diag/fault_dictionary.hpp"
#include "diag/fault_model.hpp"

namespace bistna::diag {

struct trajectory_build_options {
    /// Severity grid points per fault (>= 1; 1 degenerates to the fault's
    /// severity_min -- a single-point trajectory).
    std::size_t grid_points = 9;
    /// Thread count / lockstep lane count of the underlying sweep engine
    /// (same semantics as sweep_engine_options; the build is bit-identical
    /// at any lane count).
    std::size_t threads = 0;
    std::size_t batch_lanes = 1;
    /// DUT process-draw seed of the die the dictionary is built on (the
    /// design's nominal die when dut_tolerance_sigma is 0).
    std::uint64_t nominal_seed = 1;
    /// Root of the per-grid-point evaluator seed stream (item seeds are
    /// derived per index, so the build is scheduling-independent).
    std::uint64_t eval_seed_base = 0xD1A65EEDULL;
    /// Optional progress observer of the streamed build: invoked with
    /// (completed, total) as each grid-point acquisition arrives in item
    /// order, so `completed` counts 1..total.  Runs on the calling thread,
    /// never concurrently with itself; progress never changes the built
    /// dictionary, and an observer that throws aborts the build (the
    /// exception propagates once the job's in-flight work has drained).
    std::function<void(std::size_t completed, std::size_t total)> on_progress;
    /// Run the build on this shared pool instead of a private one (e.g.
    /// one pool serving a dictionary build and a screening lot at once);
    /// null gives the build its own pool sized by `threads`.
    std::shared_ptr<core::job_queue> queue = nullptr;
};

/// The deterministic item list + measurement program of a dictionary
/// build: item 0 is the healthy reference, then grid_points items per
/// catalog fault in catalog order.  Every item owns its evaluator seed
/// (derived from its global index), so any contiguous subrange of `items`
/// can be acquired by a separate engine -- or a separate *process* (the
/// shard worker) -- and the combined results are bit-identical to one
/// acquisition of the whole list.
struct dictionary_plan {
    std::vector<core::sweep_engine::acquisition_item> items;
    core::sweep_engine::acquisition_program program;
};

/// Construct the plan.  Uses options.grid_points / nominal_seed /
/// eval_seed_base only; engine-side options are the submitter's business.
dictionary_plan make_dictionary_plan(const die_design& design,
                                     const core::analyzer_settings& settings,
                                     const signature_space& space,
                                     const std::vector<fault_spec>& faults,
                                     const trajectory_build_options& options = {});

/// Fold the plan's acquisition results (all of them, in item order) into a
/// dictionary.  `results.size()` must be 1 + faults.size() * grid_points.
fault_dictionary
assemble_dictionary(const signature_space& space,
                    const std::vector<fault_spec>& faults,
                    std::size_t grid_points,
                    const std::vector<core::sweep_engine::acquisition_result>& results);

/// Build the dictionary: one healthy acquisition plus grid_points
/// acquisitions per catalog fault, signatures extracted into `space`.
/// Deterministic and bit-identical at any thread or lane count.
/// Equivalent to make_dictionary_plan -> submit_acquisition ->
/// assemble_dictionary in one call.
fault_dictionary build_dictionary(const die_design& design,
                                  const core::analyzer_settings& settings,
                                  const signature_space& space,
                                  const std::vector<fault_spec>& faults,
                                  const trajectory_build_options& options = {});

} // namespace bistna::diag
