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
#include "eval/estimator.hpp"
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

namespace {

/// Samples per streamed block: 8 whole periods, 96 KiB of lane-major doubles
/// at 16 lanes, so a block the DUT writes is still in a core's L2 when the
/// acquisitions at its frequency read it (4, 8 and 16 periods measured
/// alike).  Whole periods, so every feed starts at phase 0 of the
/// acquisitions' square-wave sign tables.
constexpr std::size_t block_samples = 8 * sim::timebase::oversampling_ratio;

/// body(first, count) over `total` samples, one block at a time.
template <typename Body>
void for_each_block(std::size_t total, Body&& body) {
    for (std::size_t first = 0; first < total; first += block_samples) {
        body(first, std::min(block_samples, total - first));
    }
}

/// The active lanes' DUTs stepped through their staircases a block at a
/// time, into one lane-major block.  The caller has reset and prepared each
/// device at its lane's master clock, as render_from_stimulus does, and the
/// stream then walks the staircases from sample 0, so the blocks hold, in
/// order, exactly the samples one whole-record render would.
class dut_stream {
public:
    /// devices[i] filters staircases[i]; `shared` says every lane reads
    /// staircases[0].  Bank state comes from `scratch`.
    dut_stream(std::vector<dut::device_under_test*> devices,
               std::vector<const double*> staircases, bool shared, arena& scratch)
        : devices_(std::move(devices)), staircases_(std::move(staircases)), shared_(shared) {
        std::vector<dut::state_space*> realizations;
        realizations.reserve(devices_.size());
        for (dut::device_under_test* device : devices_) {
            realizations.push_back(device->linear_realization());
        }
        if (dut::state_space_bank::compatible({realizations.data(), realizations.size()})) {
            bank_.emplace(std::span<dut::state_space* const>(realizations), scratch);
        } else {
            lane_block_ = scratch.allocate<double>(block_samples).data();
        }
    }

    /// The next `count` (at most block_samples) samples of every lane, lane
    /// i's sample n at out[n * lanes + i].
    void step(std::size_t count, double* out) {
        const std::size_t n_lanes = devices_.size();
        if (bank_ && shared_) {
            bank_->step_block_shared(staircases_.front(), count, out);
        } else if (bank_) {
            bank_->step_block_lanes(staircases_.data(), count, out);
        } else {
            // Not bankable (non-linear, or order > 4): each lane's own
            // process_block, whose state persists between calls.
            for (std::size_t i = 0; i < n_lanes; ++i) {
                devices_[i]->process_block({staircases_[i], count}, {lane_block_, count});
                for (std::size_t n = 0; n < count; ++n) {
                    out[n * n_lanes + i] = lane_block_[n];
                }
            }
        }
        for (const double*& cursor : staircases_) {
            cursor += count;
        }
    }

private:
    std::vector<dut::device_under_test*> devices_;
    std::vector<const double*> staircases_; ///< each lane's next input sample
    bool shared_;
    std::optional<dut::state_space_bank> bank_;
    double* lane_block_ = nullptr; ///< one lane's block, when not banked
};

/// Times a lane group's streamed stages without a span per block: each lap
/// charges the time since the previous one to a bucket, reading the clock
/// only while a registry is attached, and the buckets are emitted at the
/// end as consecutive spans that cover the stages' wall time.
class lap_clock {
public:
    lap_clock() noexcept
        : armed_(telemetry::attached()), at_(armed_ ? telemetry::now_ns() : 0), mark_(at_) {}

    void lap(std::uint64_t& bucket) noexcept {
        if (armed_) {
            const std::uint64_t now = telemetry::now_ns();
            bucket += now - mark_;
            mark_ = now;
        }
    }

    bool armed() const noexcept { return armed_; }

    /// Emit a span of `ns` at the emission cursor, which stays put: what
    /// the span encloses is emitted next, from its start.
    void emit(const char* name, std::uint64_t ns, const char* key0, double val0,
              const char* key1 = nullptr, double val1 = 0.0) noexcept {
        telemetry::emit_span(name, at_, ns, key0, val0, key1, val1);
    }

    /// Move the emission cursor `ns` on.
    void advance(std::uint64_t ns) noexcept { at_ += ns; }

private:
    bool armed_;
    std::uint64_t at_;   ///< emission cursor, from the first lap's start
    std::uint64_t mark_; ///< end of the last lap
};

} // namespace

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

    std::span<const program_stage> stages(program.stages);
    if (!stages.empty() && stages.front().type == program_stage::kind::calibrate) {
        telemetry::trace_span calibrate_span("engine.calibrate");
        calibrate_span.arg("lanes", static_cast<double>(count));
        const auto measured = calibrate_lanes(stairs, active, evaluators, scratch);
        for (std::size_t l = 0; l < count; ++l) {
            results[l].calibration = make_stimulus_calibration(measured[l]);
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
        stages = stages.subspan(1);
    }
    if (!active.empty() && !stages.empty()) {
        measure_stages(stages, lanes, stairs, active, evaluators, results, scratch);
    }
}

std::vector<eval::harmonic_measurement>
sweep_engine::calibrate_lanes(const std::vector<stimulus_cache::record_ptr>& stairs,
                              const std::vector<std::size_t>& active,
                              eval::batch_evaluator& evaluators, arena& scratch) {
    evaluators.calibrate(active); // the grounded run, outside the acquisition's span
    telemetry::trace_span modulate_span("eval.modulate");
    modulate_span.arg("lanes", static_cast<double>(active.size()));
    modulate_span.arg("k", 1.0);
    eval::batch_acquisition acquisition = evaluators.begin_acquisition(active, 1, settings_.periods);

    // The calibration record *is* the staircase after the settle prefix.
    const std::size_t n_lanes = active.size();
    const std::size_t keep_from =
        sim::timebase::samples_per_period() * settings_.settle_periods;
    if (one_staircase(stairs, active)) {
        const double* tail = stairs[active.front()]->data() + keep_from;
        for_each_block(acquisition.remaining(), [&](std::size_t first, std::size_t count) {
            acquisition.feed_shared(tail + first, count);
        });
    } else {
        scratch.reset();
        double* block = scratch.allocate<double>(block_samples * n_lanes).data();
        for_each_block(acquisition.remaining(), [&](std::size_t first, std::size_t count) {
            for (std::size_t i = 0; i < n_lanes; ++i) {
                const double* tail = stairs[active[i]]->data() + keep_from + first;
                for (std::size_t n = 0; n < count; ++n) {
                    block[n * n_lanes + i] = tail[n];
                }
            }
            acquisition.feed_lane_major(block, count);
        });
    }
    std::vector<eval::harmonic_measurement> measured;
    measured.reserve(n_lanes);
    for (const eval::signature_result& signature : acquisition.finish()) {
        measured.push_back(eval::estimate_harmonic(signature));
    }
    return measured;
}

void sweep_engine::measure_stages(std::span<const program_stage> stages,
                                  std::vector<program_lane>& lanes,
                                  const std::vector<stimulus_cache::record_ptr>& stairs,
                                  const std::vector<std::size_t>& active,
                                  eval::batch_evaluator& evaluators,
                                  acquisition_result* results, arena& scratch) {
    using kind = program_stage::kind;
    const std::size_t n_lanes = active.size();
    lap_clock clock;

    // Every acquisition's setup first, in program order.  An acquisition
    // reads its lanes' RNGs only here (two spawns and two initial states)
    // and draws its noise from the streams it spawned, so the order the
    // records are fed in afterwards moves no draw.
    struct acquisition_slot {
        eval::batch_acquisition acquisition;
        std::uint64_t ns = 0; ///< setup, feeds and finish
    };
    struct stage_run {
        const program_stage* stage = nullptr;
        std::size_t periods = 0;
        std::size_t point = 0; ///< a harmonic stage's index in points
        std::vector<acquisition_slot> slots; ///< one per harmonic k
        std::uint64_t other_ns = 0; ///< calibration and report assembly
    };
    std::vector<stage_run> runs;
    runs.reserve(stages.size());
    std::size_t points = 0;
    for (const program_stage& stage : stages) {
        BISTNA_EXPECTS(stage.type != kind::calibrate,
                       "a program calibrates at most once, as its first stage");
        stage_run& run = runs.emplace_back();
        run.stage = &stage;
        run.periods = stage.type == kind::thd ? settings_.distortion_periods : settings_.periods;
        run.point = points;
        points += stage.type == kind::harmonic ? 1 : 0;
        // Calibrates the lanes on the first stage of a program with no
        // calibrate stage (a Bode batch); a no-op after that.
        evaluators.calibrate(active);
        clock.lap(run.other_ns);
        const std::vector<std::size_t> harmonics =
            stage.type == kind::thd ? eval::thd_harmonics(stage.max_harmonic)
                                    : std::vector<std::size_t>{1};
        for (const std::size_t k : harmonics) {
            run.slots.push_back({evaluators.begin_acquisition(active, k, run.periods)});
            clock.lap(run.slots.back().ns);
        }
    }
    for (const std::size_t l : active) {
        results[l].points.resize(points);
    }

    // One DUT stream per distinct stage frequency, in order of first
    // appearance (f = 0, each lane at its own, is one frequency too).
    struct dut_group {
        std::vector<stage_run*> runs;
        std::size_t periods = 0; ///< the longest tail a run reads
        std::uint64_t render_ns = 0;
    };
    std::vector<dut_group> groups;
    for (stage_run& run : runs) {
        auto group = std::find_if(groups.begin(), groups.end(), [&](const dut_group& g) {
            return g.runs.front()->stage->f.value == run.stage->f.value;
        });
        if (group == groups.end()) {
            group = groups.insert(groups.end(), dut_group{});
        }
        group->runs.push_back(&run);
        group->periods = std::max(group->periods, run.periods);
    }

    const std::size_t settle = sim::timebase::samples_per_period() * settings_.settle_periods;
    for (dut_group& group : groups) {
        // The footprint is one block and one group's bank: neither grows
        // with the period counts.
        scratch.reset();
        double* block = scratch.allocate<double>(block_samples * n_lanes).data();
        const program_stage& stage = *group.runs.front()->stage;
        std::vector<dut::device_under_test*> devices;
        std::vector<const double*> staircases;
        for (const std::size_t l : active) {
            dut::device_under_test& device = lanes[l].board.dut();
            device.reset();
            device.prepare(
                sim::timebase::for_wave_frequency(stage.frequency(lanes[l].f)).master().value);
            devices.push_back(&device);
            staircases.push_back(stairs[l]->data());
        }
        dut_stream dut(std::move(devices), std::move(staircases), one_staircase(stairs, active),
                       scratch);
        for_each_block(settle, [&](std::size_t, std::size_t count) { dut.step(count, block); });
        clock.lap(group.render_ns);
        for_each_block(sim::timebase::samples_per_period() * group.periods,
                       [&](std::size_t, std::size_t count) {
                           dut.step(count, block);
                           clock.lap(group.render_ns);
                           for (stage_run* run : group.runs) {
                               for (acquisition_slot& slot : run->slots) {
                                   const std::size_t take =
                                       std::min(count, slot.acquisition.remaining());
                                   if (take > 0) {
                                       slot.acquisition.feed_lane_major(block, take);
                                       clock.lap(slot.ns);
                                   }
                               }
                           }
                       });

        for (stage_run* run : group.runs) {
            std::vector<std::vector<eval::signature_result>> signatures;
            for (acquisition_slot& slot : run->slots) {
                signatures.push_back(slot.acquisition.finish());
                clock.lap(slot.ns);
            }
            for (std::size_t i = 0; i < n_lanes; ++i) {
                program_lane& lane = lanes[active[i]];
                acquisition_result& result = results[active[i]];
                if (run->stage->type == kind::harmonic) {
                    result.points[run->point] = assemble_frequency_point(
                        run->stage->frequency(lane.f), result.calibration,
                        eval::estimate_harmonic(signatures.front()[i]), lane.board.dut());
                } else {
                    std::vector<eval::amplitude_measurement> amplitudes;
                    for (const auto& harmonic : signatures) {
                        amplitudes.push_back(eval::estimate_amplitude(harmonic[i]));
                    }
                    result.has_thd = true;
                    result.thd_db = eval::compute_thd_lenient(amplitudes).db;
                }
            }
            clock.lap(run->other_ns);
        }
    }

    // The spans lotbench's ledger splits time by, laid end to end over the
    // wall time the stages took: per DUT group its render, then each of its
    // stages with that stage's acquisitions inside it.
    if (!clock.armed()) {
        return;
    }
    const double lanes_arg = static_cast<double>(n_lanes);
    for (const dut_group& group : groups) {
        clock.emit("engine.render", group.render_ns, "lanes", lanes_arg);
        clock.advance(group.render_ns);
        for (const stage_run* run : group.runs) {
            std::uint64_t stage_ns = run->other_ns;
            for (const acquisition_slot& slot : run->slots) {
                stage_ns += slot.ns;
            }
            clock.emit(run->stage->type == kind::thd ? "engine.thd" : "engine.evaluate",
                       stage_ns, "lanes", lanes_arg);
            for (const acquisition_slot& slot : run->slots) {
                clock.emit("eval.modulate", slot.ns, "lanes", lanes_arg, "k",
                           static_cast<double>(slot.acquisition.settings().harmonic_k));
                clock.advance(slot.ns);
            }
            clock.advance(run->other_ns);
        }
    }
}

} // namespace bistna::core
