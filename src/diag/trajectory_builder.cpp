#include "diag/trajectory_builder.hpp"

#include <utility>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "core/sweep_engine.hpp"

namespace bistna::diag {

namespace {

/// The severity grid of one fault: grid_points values spanning
/// [severity_min, severity_max] (a single point degenerates to the min).
std::vector<double> severity_grid(const fault_spec& spec, std::size_t grid_points) {
    std::vector<double> severities;
    severities.reserve(grid_points);
    for (std::size_t g = 0; g < grid_points; ++g) {
        const double t = grid_points == 1 ? 0.0
                                          : static_cast<double>(g) /
                                                static_cast<double>(grid_points - 1);
        severities.push_back(lerp(spec.severity_min, spec.severity_max, t));
    }
    return severities;
}

} // namespace

dictionary_plan make_dictionary_plan(const die_design& design,
                                     const core::analyzer_settings& settings,
                                     const signature_space& space,
                                     const std::vector<fault_spec>& faults,
                                     const trajectory_build_options& options) {
    BISTNA_EXPECTS(options.grid_points >= 1, "severity grid needs at least one point");
    BISTNA_EXPECTS(!space.frequencies_hz.empty(),
                   "signature space must measure at least one frequency");

    // One item per (fault, grid point), plus the healthy reference as item
    // 0.  Every item owns its evaluator seed (derived from its index), so
    // the batch is bit-identical at any thread/lane count.
    std::vector<core::sweep_engine::acquisition_item> items;
    items.reserve(1 + faults.size() * options.grid_points);
    const auto add_item = [&](const die_design& item_design,
                              const core::analyzer_settings& item_settings) {
        core::sweep_engine::acquisition_item item;
        const std::uint64_t board_seed = options.nominal_seed;
        item.make_board = [factory = item_design.factory(), board_seed] {
            return factory(board_seed);
        };
        item.evaluator = item_settings.evaluator;
        item.evaluator.seed = core::sweep_item_seed(options.eval_seed_base, items.size());
        items.push_back(std::move(item));
    };

    add_item(design, settings); // healthy reference
    for (const auto& spec : faults) {
        for (double severity : severity_grid(spec, options.grid_points)) {
            die_design faulty = design;
            core::analyzer_settings faulty_settings = settings;
            apply_fault(spec.kind, severity, faulty, faulty_settings);
            add_item(faulty, faulty_settings);
        }
    }

    dictionary_plan plan;
    plan.items = std::move(items);
    plan.program.frequencies.reserve(space.frequencies_hz.size());
    for (double f : space.frequencies_hz) {
        plan.program.frequencies.push_back(hertz{f});
    }
    if (space.thd_max_harmonic >= 2) {
        plan.program.distortion_max_harmonic = space.thd_max_harmonic;
        plan.program.distortion_f = hertz{space.resolved_thd_f_hz()};
    }
    return plan;
}

fault_dictionary
assemble_dictionary(const signature_space& space,
                    const std::vector<fault_spec>& faults,
                    std::size_t grid_points,
                    const std::vector<core::sweep_engine::acquisition_result>& results) {
    BISTNA_EXPECTS(grid_points >= 1, "severity grid needs at least one point");
    BISTNA_EXPECTS(results.size() == 1 + faults.size() * grid_points,
                   "dictionary assembly needs every plan item's result");

    fault_dictionary dictionary;
    dictionary.space = space;
    dictionary.healthy = space.from_acquisition(results[0]);
    std::size_t next = 1;
    for (const auto& spec : faults) {
        fault_trajectory trajectory;
        trajectory.kind = spec.kind;
        trajectory.points.reserve(grid_points);
        for (double severity : severity_grid(spec, grid_points)) {
            trajectory.points.push_back(
                trajectory_point{severity, space.from_acquisition(results[next++])});
        }
        dictionary.trajectories.push_back(std::move(trajectory));
    }
    return dictionary;
}

fault_dictionary build_dictionary(const die_design& design,
                                  const core::analyzer_settings& settings,
                                  const signature_space& space,
                                  const std::vector<fault_spec>& faults,
                                  const trajectory_build_options& options) {
    dictionary_plan plan =
        make_dictionary_plan(design, settings, space, faults, options);

    core::sweep_engine_options engine_options;
    engine_options.threads = options.threads;
    engine_options.batch_lanes = options.batch_lanes;
    engine_options.queue = options.queue;
    core::sweep_engine engine(design.factory(), settings, engine_options);

    const std::size_t total = plan.items.size();
    auto handle = engine.submit_acquisition(std::move(plan.items), std::move(plan.program));
    // If the observer below throws, the engine must not unwind while
    // workers on a shared queue still run its job.
    core::job_scope<core::sweep_engine::acquisition_result> guard(handle);
    if (options.on_progress) {
        // Grid points arrive in item order on this thread, so the observer
        // counts 1..total whatever the completion order.
        while (auto item = handle.next_in_order()) {
            options.on_progress(item->index + 1, total);
        }
    }
    const auto results = std::move(handle).results();
    return assemble_dictionary(space, faults, options.grid_points, results);
}

} // namespace bistna::diag
