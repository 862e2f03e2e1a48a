#include "core/sweep_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <optional>
#include <span>
#include <utility>

#include "common/arena.hpp"
#include "common/error.hpp"
#include "common/math_util.hpp"
#include "dut/state_space.hpp"
#include "eval/batch_evaluator.hpp"
#include "eval/calibration_share.hpp"
#include "sim/timebase.hpp"
#include "telemetry/span.hpp"

namespace bistna::core {

namespace {

/// The worker's render/measure scratch: one arena per thread, reset before
/// every stage of every work item, so a steady-state lot loop allocates
/// nothing after the first item per worker reaches peak size.
arena& worker_arena() {
    thread_local arena scratch;
    return scratch;
}

/// Smallest stimulus-cache capacity (records, oldest evicted first).  A
/// Bode batch or a lot of one generator design needs 1.
constexpr std::size_t stimulus_cache_floor = 64;

/// True when every active lane reads the same cached staircase, so a stage
/// can broadcast one record instead of gathering one per lane.
bool one_staircase(const std::vector<stimulus_cache::record_ptr>& stairs,
                   const std::vector<std::size_t>& active) {
    return std::all_of(active.begin(), active.end(),
                       [&](std::size_t l) { return stairs[l] == stairs[active.front()]; });
}

} // namespace

std::uint64_t sweep_item_seed(std::uint64_t base_seed, std::size_t index) noexcept {
    // The item's position in the seed stream is just a stream id.
    return derive_stream_seed(base_seed, static_cast<std::uint64_t>(index));
}

sweep_engine::sweep_engine(board_factory factory, analyzer_settings settings,
                           sweep_engine_options options)
    : factory_(std::move(factory)), settings_(settings), options_(std::move(options)) {
    BISTNA_EXPECTS(factory_ != nullptr, "sweep engine requires a board factory");
    const engine_pool& pool = options_.queue;
    calibration_share_ = pool.calibrations ? pool.calibrations
                                           : std::make_shared<eval::calibration_share>();
    queue_ = pool.queue ? pool.queue : std::make_shared<job_queue>(options_.threads);
    // A lane group holds its records for its whole program, so eviction
    // never reaches a running group; sizing the FIFO to the threads x
    // batch_lanes items in flight keeps the next groups' records resident.
    const std::size_t in_flight =
        queue_->threads() * std::max<std::size_t>(1, options_.batch_lanes);
    stimulus_cache_ =
        std::make_shared<stimulus_cache>(std::max(stimulus_cache_floor, in_flight));
}

// --- Measurement programs --------------------------------------------------

/// One stage of a measurement program, the scalar network_analyzer call it
/// reproduces in parentheses.
struct sweep_engine::program_stage {
    enum class kind {
        calibrate, ///< stimulus through the calibration path (calibrate())
        harmonic,  ///< fundamental gain/phase through the DUT (measure_point)
        thd,       ///< THD of the DUT output (measure_distortion)
    };
    kind type = kind::harmonic;
    /// Stimulus frequency of a harmonic/thd stage; 0 measures every lane at
    /// its own frequency (the points of a Bode batch).
    hertz f{0.0};
    std::size_t max_harmonic = 0; ///< thd: harmonics 1..max_harmonic

    /// The frequency the stage measures a lane at.
    hertz frequency(hertz lane_f) const { return f.value > 0.0 ? f : lane_f; }
};

/// Each harmonic stage divides by the lane's calibration: injected, or
/// measured by the program's one calibrate stage.
struct sweep_engine::measurement_program {
    std::vector<program_stage> stages;
    /// Injected before the first stage (a Bode batch's shared one-time
    /// calibration); absent, the first calibrate stage provides it.
    std::optional<stimulus_calibration> calibration;
    /// Screening's self-test: after the first calibrate stage a lane whose
    /// stimulus fails this mask's check measures nothing further (the scalar
    /// screen()'s early return).  Absent keeps every lane.
    std::optional<spec_mask> self_test;

    /// The scalar analyzer's call sequence: calibrate() once, then
    /// measure_point(f) per frequency, then optionally measure_distortion.
    static measurement_program analyzer(const std::vector<hertz>& frequencies,
                                        std::optional<program_stage> thd) {
        using kind = program_stage::kind;
        measurement_program program;
        program.stages.push_back({kind::calibrate});
        for (hertz f : frequencies) {
            program.stages.push_back({kind::harmonic, f});
        }
        if (thd) {
            program.stages.push_back(*thd);
        }
        return program;
    }
};

// --- Bode sessions ---------------------------------------------------------

job_handle<frequency_point>
sweep_engine::submit_bode(std::vector<hertz> frequencies, std::uint64_t board_seed) {
    BISTNA_EXPECTS(!frequencies.empty(), "sweep requires at least one frequency");

    // One-time calibration, shared by every point.  The system is
    // clock-normalized, so this is exactly the paper's single calibration;
    // performing it with seed stream 0 keeps it independent of the
    // per-point seeds and of scheduling.  It runs here, on the submitting
    // thread, so every streamed point is a pure per-index function: one
    // lane measuring at its own frequency.
    eval::evaluator_config config = settings_.evaluator;
    config.seed = sweep_item_seed(bode_seed_root, 0);
    std::vector<program_lane> lane;
    lane.push_back({factory_(board_seed), config});
    measurement_program calibrate_only;
    calibrate_only.stages.push_back({program_stage::kind::calibrate});
    acquisition_result calibration;
    arena scratch;
    execute(calibrate_only, lane, &calibration, scratch);

    measurement_program program;
    program.calibration = calibration.calibration;
    program.stages.push_back({program_stage::kind::harmonic});

    // Job-lifetime state, shared by every task closure (the handle may
    // outlive the submitting frame).
    struct bode_job {
        std::vector<hertz> frequencies;
        std::uint64_t board_seed = 0;
        measurement_program program;
    };
    auto job = std::make_shared<const bode_job>(
        bode_job{std::move(frequencies), board_seed, std::move(program)});
    return queue_->submit<frequency_point>(
        job->frequencies.size(), std::max<std::size_t>(1, options_.batch_lanes),
        [this, job](std::size_t first, std::size_t count, frequency_point* out) {
            std::vector<program_lane> lanes;
            lanes.reserve(count);
            for (std::size_t l = 0; l < count; ++l) {
                eval::evaluator_config config = settings_.evaluator;
                config.seed = sweep_item_seed(bode_seed_root, first + l + 1);
                lanes.push_back(
                    {factory_(job->board_seed), config, job->frequencies[first + l]});
            }
            std::vector<acquisition_result> results(count);
            execute(job->program, lanes, results.data(), worker_arena());
            for (std::size_t l = 0; l < count; ++l) {
                out[l] = results[l].points.front();
            }
        });
}

sweep_report sweep_engine::run(const std::vector<hertz>& frequencies,
                               std::uint64_t board_seed) {
    const auto start = std::chrono::steady_clock::now();
    auto handle = submit_bode(frequencies, board_seed);

    sweep_report report;
    report.points = std::move(handle).results();
    report.threads_used = queue_->threads();
    report.elapsed_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

    std::vector<double> gain_errors;
    gain_errors.reserve(report.points.size());
    for (const auto& point : report.points) {
        const double gain_error = std::abs(point.gain_db - point.ideal_gain_db);
        const double phase_error = std::abs(point.phase_deg - point.ideal_phase_deg);
        gain_errors.push_back(gain_error);
        report.worst_gain_error_db = std::max(report.worst_gain_error_db, gain_error);
        report.worst_phase_error_deg = std::max(report.worst_phase_error_deg, phase_error);
        report.max_gain_bound_width_db =
            std::max(report.max_gain_bound_width_db, point.gain_db_bounds.width());
        if (!point.gain_db_bounds.contains(point.ideal_gain_db)) {
            ++report.gain_bound_violations;
        }
    }
    report.gain_error_db_summary = summarize(std::move(gain_errors));
    return report;
}

// --- Screening sessions ----------------------------------------------------

namespace {

/// A die's report from its program outcome: the same fields, verdicts and
/// order core::screen assembles from the scalar analyzer.
screening_report to_screening_report(const sweep_engine::acquisition_result& result,
                                     const spec_mask& mask, double thd_f_hz) {
    screening_report report;
    report.stimulus_volts = result.calibration.amplitude.volts;
    report.stimulus_phase_deg = rad_to_deg(result.calibration.phase.radians);
    report.offset_rate = result.offset_rate;
    report.self_test_passed = stimulus_self_test(mask, report.stimulus_volts);
    report.passed = report.self_test_passed;
    for (std::size_t i = 0; i < result.points.size(); ++i) {
        const auto limit = evaluate_limit(mask.limits[i], result.points[i], i);
        report.passed = report.passed && limit.passed;
        report.limits.push_back(limit);
    }
    if (result.has_thd) {
        report.distortion_measured = true;
        report.thd_db = result.thd_db;
        report.thd_f_hz = thd_f_hz;
    }
    return report;
}

} // namespace

job_handle<screening_report>
sweep_engine::submit_screening(const spec_mask& mask, std::size_t dice,
                               std::uint64_t first_seed, const screening_options& screening,
                               std::function<void()> on_published) {
    BISTNA_EXPECTS(dice > 0, "batch must contain at least one die");
    BISTNA_EXPECTS(!mask.limits.empty(), "spec mask has no limits");

    const double thd_f_hz = screening.distortion_f_hz > 0.0 ? screening.distortion_f_hz
                                                            : mask.limits.front().f_hz;
    std::vector<hertz> frequencies;
    for (const auto& limit : mask.limits) {
        frequencies.push_back(hertz{limit.f_hz});
    }
    std::optional<program_stage> thd;
    if (screening.measure_distortion) {
        thd = program_stage{program_stage::kind::thd, hertz{thd_f_hz},
                            screening.distortion_max_harmonic};
    }
    measurement_program program = measurement_program::analyzer(frequencies, thd);
    if (!screening.continue_after_self_test_failure) {
        // Broken BIST circuitry: don't trust the die's DUT data.
        program.self_test = mask;
    }

    struct screening_job {
        spec_mask mask;
        std::uint64_t first_seed = 0;
        double thd_f_hz = 0.0;
        measurement_program program;
    };
    auto job = std::make_shared<const screening_job>(
        screening_job{mask, first_seed, thd_f_hz, std::move(program)});
    return queue_->submit<screening_report>(
        dice, std::max<std::size_t>(1, options_.batch_lanes),
        [this, job](std::size_t first, std::size_t count, screening_report* out) {
            // Same per-die construction as the sequential core::screen_lot:
            // the die's identity comes solely from its factory seed.
            std::vector<program_lane> lanes;
            lanes.reserve(count);
            for (std::size_t l = 0; l < count; ++l) {
                lanes.push_back({factory_(job->first_seed + first + l), settings_.evaluator});
            }
            std::vector<acquisition_result> results(count);
            execute(job->program, lanes, results.data(), worker_arena());
            for (std::size_t l = 0; l < count; ++l) {
                out[l] = to_screening_report(results[l], job->mask, job->thd_f_hz);
            }
        },
        std::move(on_published));
}

// --- Generic acquisition sessions ------------------------------------------

job_handle<sweep_engine::acquisition_result>
sweep_engine::submit_acquisition(std::vector<acquisition_item> items,
                                 acquisition_program program,
                                 std::function<void()> on_published) {
    BISTNA_EXPECTS(!items.empty(), "acquisition batch must contain at least one item");
    BISTNA_EXPECTS(!program.frequencies.empty(),
                   "acquisition program must measure at least one frequency");

    std::optional<program_stage> thd;
    if (program.distortion_max_harmonic >= 2) {
        const hertz f = program.distortion_f.value > 0.0 ? program.distortion_f
                                                         : program.frequencies.front();
        thd = program_stage{program_stage::kind::thd, f, program.distortion_max_harmonic};
    }
    // The items are owned by the job, so the caller's copies can die.
    struct acquisition_job {
        std::vector<acquisition_item> items;
        measurement_program program;
    };
    auto job = std::make_shared<const acquisition_job>(
        acquisition_job{std::move(items), measurement_program::analyzer(program.frequencies, thd)});
    return queue_->submit<acquisition_result>(
        job->items.size(), std::max<std::size_t>(1, options_.batch_lanes),
        [this, job](std::size_t first, std::size_t count, acquisition_result* out) {
            std::vector<program_lane> lanes;
            lanes.reserve(count);
            for (std::size_t l = 0; l < count; ++l) {
                const acquisition_item& item = job->items[first + l];
                lanes.push_back({item.make_board(), item.evaluator});
            }
            execute(job->program, lanes, out, worker_arena());
        },
        std::move(on_published));
}

// --- The executor ----------------------------------------------------------

void sweep_engine::execute(const measurement_program& program,
                           std::vector<program_lane>& lanes, acquisition_result* results,
                           arena& scratch) {
    const std::size_t count = lanes.size();
    BISTNA_EXPECTS(count > 0, "lane group must contain at least one lane");

    std::vector<eval::evaluator_config> configs;
    configs.reserve(count);
    for (program_lane& lane : lanes) {
        lane.board.set_stimulus_cache(stimulus_cache_);
        configs.push_back(lane.evaluator);
    }
    eval::batch_evaluator evaluators(std::move(configs), *calibration_share_);

    // The stimulus calibration each lane's harmonic stages divide by.
    if (program.calibration) {
        for (std::size_t l = 0; l < count; ++l) {
            results[l].calibration = *program.calibration;
        }
    }
    std::vector<std::size_t> active(count);
    std::iota(active.begin(), active.end(), std::size_t{0});

    // One staircase per lane, at the longest period count a stage needs;
    // each stage reads settle + its own periods from the front.  Exact:
    // render_stimulus steps a fresh generator sample by sample, so a
    // shorter render is a prefix of a longer one.
    std::size_t record_periods = 0;
    for (const program_stage& stage : program.stages) {
        record_periods = std::max(record_periods, stage.type == program_stage::kind::thd
                                                      ? settings_.distortion_periods
                                                      : settings_.periods);
    }
    std::vector<stimulus_cache::record_ptr> stairs(count);
    {
        telemetry::trace_span render_span("engine.render");
        render_span.arg("lanes", static_cast<double>(count));
        for (std::size_t l = 0; l < count; ++l) {
            stairs[l] = lanes[l].board.stimulus_record(record_periods, settings_.settle_periods);
        }
    }

    for (const program_stage& stage : program.stages) {
        if (active.empty()) {
            break;
        }
        // A stage's lane-major block is dead once the stage has measured it,
        // so every stage reuses the same scratch: the footprint is the
        // largest stage, not the sum of them.
        scratch.reset();
        const double lanes_arg = static_cast<double>(active.size());
        switch (stage.type) {
        case program_stage::kind::calibrate: {
            telemetry::trace_span calibrate_span("engine.calibrate");
            calibrate_span.arg("lanes", lanes_arg);
            const auto measured = calibrate_lanes(stairs, active, evaluators, scratch);
            for (std::size_t i = 0; i < active.size(); ++i) {
                const std::size_t l = active[i];
                results[l].calibration = make_stimulus_calibration(measured[i]);
                results[l].offset_rate = evaluators.extractor(l).offset_rate_ch1();
            }
            if (program.self_test) {
                // A dropped lane consumes no more of its RNG streams, so its
                // neighbours are unperturbed; it is a finished item now.
                std::erase_if(active, [&](std::size_t l) {
                    return !stimulus_self_test(*program.self_test,
                                               results[l].calibration.amplitude.volts);
                });
            }
            break;
        }
        case program_stage::kind::harmonic: {
            const double* lane_major = [&] {
                telemetry::trace_span render_span("engine.render");
                render_span.arg("lanes", lanes_arg);
                return render_dut_lane_major(lanes, stairs, active, stage, settings_.periods,
                                             scratch);
            }();
            telemetry::trace_span evaluate_span("engine.evaluate");
            evaluate_span.arg("lanes", lanes_arg);
            const auto outputs = evaluators.measure_harmonic_lanes_lane_major(
                active, lane_major, 1, settings_.periods);
            for (std::size_t i = 0; i < active.size(); ++i) {
                program_lane& lane = lanes[active[i]];
                acquisition_result& result = results[active[i]];
                result.points.push_back(assemble_frequency_point(
                    stage.frequency(lane.f), result.calibration, outputs[i], lane.board.dut()));
            }
            break;
        }
        case program_stage::kind::thd: {
            telemetry::trace_span thd_span("engine.thd");
            thd_span.arg("lanes", lanes_arg);
            const double* lane_major = render_dut_lane_major(
                lanes, stairs, active, stage, settings_.distortion_periods, scratch);
            const auto thd = evaluators.measure_thd_lanes_lane_major(
                active, lane_major, stage.max_harmonic, settings_.distortion_periods);
            for (std::size_t i = 0; i < active.size(); ++i) {
                results[active[i]].has_thd = true;
                results[active[i]].thd_db = thd[i].db;
            }
            break;
        }
        }
    }
}

std::vector<eval::harmonic_measurement>
sweep_engine::calibrate_lanes(const std::vector<stimulus_cache::record_ptr>& stairs,
                              const std::vector<std::size_t>& active,
                              eval::batch_evaluator& evaluators, arena& scratch) {
    // The calibration record *is* the staircase after the settle prefix, so
    // the lanes read the cached records in place.
    const std::size_t n_lanes = active.size();
    const std::size_t keep_from =
        sim::timebase::samples_per_period() * settings_.settle_periods;
    const std::size_t tail = sim::timebase::samples_per_period() * settings_.periods;
    if (one_staircase(stairs, active)) {
        return evaluators.measure_harmonic_lanes_shared(
            active, {stairs[active.front()]->data() + keep_from, tail}, 1, settings_.periods);
    }
    double* lane_major = scratch.allocate<double>(tail * n_lanes).data();
    for (std::size_t i = 0; i < n_lanes; ++i) {
        const double* record = stairs[active[i]]->data() + keep_from;
        for (std::size_t n = 0; n < tail; ++n) {
            lane_major[n * n_lanes + i] = record[n];
        }
    }
    return evaluators.measure_harmonic_lanes_lane_major(active, lane_major, 1,
                                                        settings_.periods);
}

double* sweep_engine::render_dut_lane_major(
    std::vector<program_lane>& lanes, const std::vector<stimulus_cache::record_ptr>& stairs,
    const std::vector<std::size_t>& active, const program_stage& stage, std::size_t periods,
    arena& scratch) {
    const std::size_t n_lanes = active.size();
    // Record lengths are frequency-independent (N = 96 by construction), so
    // lanes at different frequencies still share one block layout.
    const std::size_t keep_from =
        sim::timebase::samples_per_period() * settings_.settle_periods;
    const std::size_t tail = sim::timebase::samples_per_period() * periods;
    double* out = scratch.allocate<double>(tail * n_lanes).data();

    // Stage 1 per lane: the first keep_from + tail samples of its staircase,
    // read straight from the shared record (no copies).
    const bool same_staircase = one_staircase(stairs, active);

    // Stage 2: the lockstep state-space pass when every lane is a prepared
    // linear realization of bankable order -- the same reset / prepare /
    // settle-block / tail-block sequence as render_from_stimulus, run
    // lane-major across the group, each lane discretized at its own master
    // clock.
    std::vector<sim::timebase> timebases;
    timebases.reserve(n_lanes);
    std::vector<dut::state_space*> realizations(n_lanes);
    bool bankable = true;
    for (std::size_t i = 0; i < n_lanes; ++i) {
        program_lane& lane = lanes[active[i]];
        timebases.push_back(sim::timebase::for_wave_frequency(stage.frequency(lane.f)));
        auto& device = lane.board.dut();
        device.reset();
        device.prepare(timebases.back().master().value);
        realizations[i] = device.linear_realization();
        bankable = bankable && realizations[i] != nullptr;
    }
    if (bankable &&
        dut::state_space_bank::compatible({realizations.data(), n_lanes})) {
        dut::state_space_bank bank({realizations.data(), n_lanes}, scratch);
        // The settle prefix is discarded, so it can pass through `out`
        // before the tail overwrites it.
        double* discard = keep_from <= tail
                              ? out
                              : scratch.allocate<double>(keep_from * n_lanes).data();
        if (same_staircase) {
            const double* input = stairs[active.front()]->data();
            bank.step_block_shared(input, keep_from, discard);
            bank.step_block_shared(input + keep_from, tail, out);
        } else {
            const double** settle_inputs = scratch.allocate<const double*>(n_lanes).data();
            const double** tail_inputs = scratch.allocate<const double*>(n_lanes).data();
            for (std::size_t i = 0; i < n_lanes; ++i) {
                settle_inputs[i] = stairs[active[i]]->data();
                tail_inputs[i] = stairs[active[i]]->data() + keep_from;
            }
            bank.step_block_lanes(settle_inputs, keep_from, discard);
            bank.step_block_lanes(tail_inputs, tail, out);
        }
        return out;
    }

    // Fallback (non-linear or high-order DUTs): scalar per-lane renders
    // transposed into the lane-major layout -- bit-identical by definition.
    for (std::size_t i = 0; i < n_lanes; ++i) {
        const auto record = lanes[active[i]].board.render_from_stimulus(
            std::span<const double>(*stairs[active[i]]).first(keep_from + tail), timebases[i],
            periods, signal_path::through_dut, settings_.settle_periods);
        for (std::size_t n = 0; n < tail; ++n) {
            out[n * n_lanes + i] = record[n];
        }
    }
    return out;
}

} // namespace bistna::core
