#include "core/sweep_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <numeric>
#include <optional>
#include <thread>
#include <utility>

#include "common/arena.hpp"
#include "common/error.hpp"
#include "common/math_util.hpp"
#include "dut/state_space.hpp"
#include "eval/acquire_plan.hpp"
#include "eval/batch_evaluator.hpp"
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

} // namespace

std::uint64_t sweep_item_seed(std::uint64_t base_seed, std::size_t index) noexcept {
    // The item's position in the seed stream is just a stream id.
    return derive_stream_seed(base_seed, static_cast<std::uint64_t>(index));
}

sweep_engine::sweep_engine(board_factory factory, analyzer_settings settings,
                           sweep_engine_options options)
    : factory_(std::move(factory)), settings_(settings), options_(std::move(options)) {
    BISTNA_EXPECTS(factory_ != nullptr, "sweep engine requires a board factory");
    if (options_.autotune) {
        run_autotune(); // may rewrite options_.threads / options_.batch_lanes
    }
    demod_tables_ = std::make_shared<eval::demod_table_cache>();
    calibration_share_ = std::make_shared<eval::calibration_share>();
    queue_ = options_.queue ? options_.queue
                            : std::make_shared<job_queue>(options_.threads);
    if (options_.share_stimulus) {
        // A screening batch holds threads x batch_lanes dice in flight at
        // once; keep the FIFO large enough that no group's records are
        // evicted mid-screen.
        const std::size_t in_flight =
            resolved_threads() * std::max<std::size_t>(1, options_.batch_lanes);
        stimulus_cache_ = std::make_shared<stimulus_cache>(
            std::max(options_.stimulus_cache_entries, in_flight));
    }
}

stimulus_cache_stats sweep_engine::stimulus_stats() const {
    return stimulus_cache_ ? stimulus_cache_->stats() : stimulus_cache_stats{};
}

sweep_stats sweep_engine::stats() const {
    sweep_stats stats;
    stats.threads = resolved_threads();
    stats.batch_lanes = std::max<std::size_t>(1, options_.batch_lanes);
    stats.autotuned = autotuned_;
    stats.autotune_seconds = autotune_seconds_;
    stats.autotune_candidates = autotune_candidates_;
    stats.stimulus = stimulus_stats();
    stats.calibration_snapshots = calibration_share_->entries();
    return stats;
}

void sweep_engine::run_autotune() {
    const auto start = std::chrono::steady_clock::now();

    // Candidate grid.  A shared queue's thread count is not ours to change,
    // so only the lane count is tuned then.
    std::vector<std::size_t> thread_candidates;
    if (options_.queue) {
        thread_candidates.push_back(options_.queue->threads());
    } else {
        const std::size_t hw =
            std::max<std::size_t>(1, std::thread::hardware_concurrency());
        thread_candidates.push_back(hw);
        if (hw / 2 >= 1 && hw / 2 != hw) {
            thread_candidates.push_back(hw / 2);
        }
    }
    const std::size_t lane_candidates[] = {4, 8, 16};

    // The probe workload: a miniature screening lot (short records, short
    // calibration, a mask every die passes) -- enough render + measure work
    // per die to expose the render/acquire throughput ratio the real lot
    // will see, at a negligible fraction of its cost.
    analyzer_settings probe_settings = settings_;
    probe_settings.periods = 16;
    probe_settings.settle_periods = 4;
    probe_settings.distortion_periods = 32;
    probe_settings.evaluator.calibration_periods = 64;
    spec_mask probe_mask;
    probe_mask.limits.push_back(gain_limit{1000.0, -1e9, 1e9, "autotune-probe"});
    probe_mask.stimulus_tolerance = 1e9; // every die passes the self-test

    autotune_candidate best{};
    for (std::size_t threads : thread_candidates) {
        for (std::size_t lanes : lane_candidates) {
            sweep_engine_options probe_options = options_;
            probe_options.autotune = false;
            probe_options.threads = threads;
            probe_options.batch_lanes = lanes;
            sweep_engine probe(factory_, probe_settings, probe_options);
            const std::size_t dice = 2 * probe.resolved_threads() * lanes;
            (void)probe.screen_batch(probe_mask, lanes, 1); // warm-up: pools + caches
            const auto t0 = std::chrono::steady_clock::now();
            (void)probe.screen_batch(probe_mask, dice, 1);
            autotune_candidate candidate;
            candidate.threads = probe.resolved_threads();
            candidate.batch_lanes = lanes;
            candidate.seconds =
                std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
                    .count();
            candidate.dice_per_second =
                candidate.seconds > 0.0 ? static_cast<double>(dice) / candidate.seconds
                                        : 0.0;
            if (candidate.dice_per_second > best.dice_per_second) {
                best = candidate;
            }
            autotune_candidates_.push_back(candidate);
        }
    }

    if (best.batch_lanes != 0) {
        if (!options_.queue) {
            options_.threads = best.threads;
        }
        options_.batch_lanes = best.batch_lanes;
        autotuned_ = true;
    }
    autotune_seconds_ =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

std::size_t sweep_engine::resolved_threads() const noexcept {
    return queue_->threads();
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

/// Each harmonic stage divides by the lane's latest calibration.
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
    /// measure_point(f) per frequency -- re-measuring the stimulus first
    /// under recalibrate_per_point, as measure_point does -- then
    /// optionally measure_distortion.
    static measurement_program analyzer(const std::vector<hertz>& frequencies,
                                        bool recalibrate_per_point,
                                        std::optional<program_stage> thd) {
        using kind = program_stage::kind;
        measurement_program program;
        program.stages.push_back({kind::calibrate});
        for (hertz f : frequencies) {
            if (recalibrate_per_point) {
                program.stages.push_back({kind::calibrate});
            }
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
sweep_engine::submit_bode(std::vector<hertz> frequencies, std::uint64_t board_seed,
                          job_handle<frequency_point>::item_callback on_point) {
    BISTNA_EXPECTS(!frequencies.empty(), "sweep requires at least one frequency");

    // Each point is one lane measuring at its own frequency; without a
    // shared calibration it characterizes the stimulus first, exactly as
    // measure_point does on a fresh analyzer.
    measurement_program program;
    if (options_.share_calibration && !settings_.recalibrate_per_point) {
        // One-time calibration, shared by every point.  The system is
        // clock-normalized, so this is exactly the paper's single
        // calibration; performing it with the batch's base seed keeps it
        // independent of the per-point seeds and of scheduling.  It runs
        // here, on the submitting thread, so every streamed point is a pure
        // per-index function.
        eval::evaluator_config config = settings_.evaluator;
        config.seed = sweep_item_seed(options_.base_seed, 0);
        std::vector<program_lane> lane;
        lane.push_back({factory_(board_seed), config});
        measurement_program calibrate_only;
        calibrate_only.stages.push_back({program_stage::kind::calibrate});
        acquisition_result calibration;
        arena scratch;
        execute(calibrate_only, lane, &calibration, scratch);
        program.calibration = calibration.calibration;
    } else {
        program.stages.push_back({program_stage::kind::calibrate});
    }
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
        [this, job](std::size_t first, std::size_t count, frequency_point* out,
                    const job_progress& progress) {
            std::vector<program_lane> lanes;
            lanes.reserve(count);
            for (std::size_t l = 0; l < count; ++l) {
                eval::evaluator_config config = settings_.evaluator;
                config.seed = sweep_item_seed(options_.base_seed, first + l + 1);
                lanes.push_back(
                    {factory_(job->board_seed), config, job->frequencies[first + l]});
            }
            std::vector<acquisition_result> results(count);
            execute(job->program, lanes, results.data(), worker_arena(), progress);
            for (std::size_t l = 0; l < count; ++l) {
                out[l] = results[l].points.front();
            }
        },
        std::move(on_point));
}

sweep_report sweep_engine::run(const std::vector<hertz>& frequencies,
                               std::uint64_t board_seed) {
    const auto start = std::chrono::steady_clock::now();
    auto handle = submit_bode(frequencies, board_seed);

    sweep_report report;
    report.points = std::move(handle).results();
    report.threads_used = resolved_threads();
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
                               job_handle<screening_report>::item_callback on_report,
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
    measurement_program program =
        measurement_program::analyzer(frequencies, settings_.recalibrate_per_point, thd);
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
        [this, job](std::size_t first, std::size_t count, screening_report* out,
                    const job_progress& progress) {
            // Same per-die construction as the sequential core::screen_lot:
            // the die's identity comes solely from its factory seed.
            std::vector<program_lane> lanes;
            lanes.reserve(count);
            for (std::size_t l = 0; l < count; ++l) {
                lanes.push_back({factory_(job->first_seed + first + l), settings_.evaluator});
            }
            std::vector<acquisition_result> results(count);
            execute(job->program, lanes, results.data(), worker_arena(), progress);
            for (std::size_t l = 0; l < count; ++l) {
                out[l] = to_screening_report(results[l], job->mask, job->thd_f_hz);
            }
        },
        std::move(on_report), std::move(on_published));
}

std::vector<screening_report> sweep_engine::screen_batch(const spec_mask& mask,
                                                         std::size_t dice,
                                                         std::uint64_t first_seed,
                                                         const screening_options& screening) {
    return submit_screening(mask, dice, first_seed, screening).results();
}

lot_result sweep_engine::screen_lot(const spec_mask& mask, std::size_t dice,
                                    std::uint64_t first_seed,
                                    const screening_options& screening) {
    return aggregate_lot(screen_batch(mask, dice, first_seed, screening));
}

// --- Generic acquisition sessions ------------------------------------------

job_handle<sweep_engine::acquisition_result>
sweep_engine::submit_acquisition(std::vector<acquisition_item> items,
                                 acquisition_program program,
                                 job_handle<acquisition_result>::item_callback on_result,
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
    auto job = std::make_shared<const acquisition_job>(acquisition_job{
        std::move(items), measurement_program::analyzer(program.frequencies,
                                                        settings_.recalibrate_per_point, thd)});
    return queue_->submit<acquisition_result>(
        job->items.size(), std::max<std::size_t>(1, options_.batch_lanes),
        [this, job](std::size_t first, std::size_t count, acquisition_result* out,
                    const job_progress& progress) {
            std::vector<program_lane> lanes;
            lanes.reserve(count);
            for (std::size_t l = 0; l < count; ++l) {
                const acquisition_item& item = job->items[first + l];
                lanes.push_back({item.make_board(), item.evaluator});
            }
            execute(job->program, lanes, out, worker_arena(), progress);
        },
        std::move(on_result), std::move(on_published));
}

std::vector<sweep_engine::acquisition_result> sweep_engine::acquire(
    const std::vector<acquisition_item>& items, const acquisition_program& program) {
    return submit_acquisition(items, program).results();
}

// --- The executor ----------------------------------------------------------

void sweep_engine::execute(const measurement_program& program,
                           std::vector<program_lane>& lanes, acquisition_result* results,
                           arena& scratch, const job_progress& progress) {
    const std::size_t count = lanes.size();
    BISTNA_EXPECTS(count > 0, "lane group must contain at least one lane");

    std::vector<eval::evaluator_config> configs;
    configs.reserve(count);
    for (program_lane& lane : lanes) {
        if (stimulus_cache_) {
            lane.board.set_stimulus_cache(stimulus_cache_);
        }
        configs.push_back(lane.evaluator);
    }
    eval::batch_evaluator evaluators(std::move(configs), *demod_tables_,
                                     *calibration_share_);

    // The stimulus calibration each lane's next harmonic stage divides by.
    std::vector<stimulus_calibration> inputs(count);
    if (program.calibration) {
        for (std::size_t l = 0; l < count; ++l) {
            inputs[l] = results[l].calibration = *program.calibration;
        }
    }
    std::vector<std::size_t> active(count);
    std::iota(active.begin(), active.end(), std::size_t{0});
    bool first_calibration = !program.calibration.has_value();

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
            const auto measured = calibrate_lanes(lanes, active, evaluators, scratch);
            for (std::size_t i = 0; i < active.size(); ++i) {
                inputs[active[i]] = make_stimulus_calibration(measured[i]);
            }
            if (!first_calibration) {
                break;
            }
            first_calibration = false;
            for (std::size_t l : active) {
                results[l].calibration = inputs[l];
                results[l].offset_rate = evaluators.extractor(l).offset_rate_ch1();
            }
            if (program.self_test) {
                // A dropped lane consumes no more of its RNG streams, so its
                // neighbours are unperturbed; it is a finished item now.
                std::erase_if(active, [&](std::size_t l) {
                    return !stimulus_self_test(*program.self_test, inputs[l].amplitude.volts);
                });
                progress.items_done(count - active.size());
            }
            break;
        }
        case program_stage::kind::harmonic: {
            const double* lane_major = [&] {
                telemetry::trace_span render_span("engine.render");
                render_span.arg("lanes", lanes_arg);
                return render_dut_lane_major(lanes, active, stage, settings_.periods, scratch);
            }();
            telemetry::trace_span evaluate_span("engine.evaluate");
            evaluate_span.arg("lanes", lanes_arg);
            const auto outputs = evaluators.measure_harmonic_lanes_lane_major(
                active, lane_major, 1, settings_.periods);
            for (std::size_t i = 0; i < active.size(); ++i) {
                program_lane& lane = lanes[active[i]];
                results[active[i]].points.push_back(assemble_frequency_point(
                    stage.frequency(lane.f), inputs[active[i]], outputs[i],
                    settings_.hold_compensation, lane.board.dut()));
            }
            break;
        }
        case program_stage::kind::thd: {
            telemetry::trace_span thd_span("engine.thd");
            thd_span.arg("lanes", lanes_arg);
            const double* lane_major = render_dut_lane_major(
                lanes, active, stage, settings_.distortion_periods, scratch);
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
    progress.items_done(active.size());
}

std::vector<eval::harmonic_measurement>
sweep_engine::calibrate_lanes(std::vector<program_lane>& lanes,
                              const std::vector<std::size_t>& active,
                              eval::batch_evaluator& evaluators, arena& scratch) {
    // The calibration record *is* the staircase tail, so the lanes read the
    // cached records in place.
    const std::size_t n_lanes = active.size();
    const std::size_t keep_from =
        sim::timebase::samples_per_period() * settings_.settle_periods;
    std::vector<stimulus_cache::record_ptr> stairs(n_lanes);
    bool same_staircase = true;
    for (std::size_t i = 0; i < n_lanes; ++i) {
        stairs[i] = lanes[active[i]].board.stimulus_record(settings_.periods,
                                                           settings_.settle_periods);
        same_staircase = same_staircase && stairs[i].get() == stairs[0].get();
    }
    const std::size_t tail = stairs[0]->size() - keep_from;
    if (same_staircase) {
        return evaluators.measure_harmonic_lanes_shared(
            active, {stairs[0]->data() + keep_from, tail}, 1, settings_.periods);
    }
    double* lane_major = scratch.allocate<double>(tail * n_lanes).data();
    for (std::size_t i = 0; i < n_lanes; ++i) {
        const double* record = stairs[i]->data() + keep_from;
        for (std::size_t n = 0; n < tail; ++n) {
            lane_major[n * n_lanes + i] = record[n];
        }
    }
    return evaluators.measure_harmonic_lanes_lane_major(active, lane_major, 1,
                                                        settings_.periods);
}

double* sweep_engine::render_dut_lane_major(std::vector<program_lane>& lanes,
                                            const std::vector<std::size_t>& active,
                                            const program_stage& stage, std::size_t periods,
                                            arena& scratch) {
    const std::size_t n_lanes = active.size();
    // Record lengths are frequency-independent (N = 96 by construction), so
    // lanes at different frequencies still share one block layout.
    const std::size_t keep_from =
        sim::timebase::samples_per_period() * settings_.settle_periods;
    const std::size_t tail = sim::timebase::samples_per_period() * periods;
    double* out = scratch.allocate<double>(tail * n_lanes).data();

    // Stage 1 per lane, straight from the shared cache (no tail copies).
    std::vector<stimulus_cache::record_ptr> stairs(n_lanes);
    bool same_staircase = true;
    for (std::size_t i = 0; i < n_lanes; ++i) {
        stairs[i] = lanes[active[i]].board.stimulus_record(periods, settings_.settle_periods);
        same_staircase = same_staircase && stairs[i].get() == stairs[0].get();
    }

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
            const double* input = stairs[0]->data();
            bank.step_block_shared(input, keep_from, discard);
            bank.step_block_shared(input + keep_from, tail, out);
        } else {
            const double** settle_inputs = scratch.allocate<const double*>(n_lanes).data();
            const double** tail_inputs = scratch.allocate<const double*>(n_lanes).data();
            for (std::size_t i = 0; i < n_lanes; ++i) {
                settle_inputs[i] = stairs[i]->data();
                tail_inputs[i] = stairs[i]->data() + keep_from;
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
            *stairs[i], timebases[i], periods, signal_path::through_dut,
            settings_.settle_periods);
        for (std::size_t n = 0; n < tail; ++n) {
            out[n * n_lanes + i] = record[n];
        }
    }
    return out;
}

} // namespace bistna::core
