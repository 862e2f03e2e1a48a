// Parallel batch execution of network-analyzer measurements (extension).
//
// A Bode sweep is embarrassingly parallel across frequency points, and a
// production lot is embarrassingly parallel across dice: every item renders
// its own record and never shares mutable state with its neighbours.  This
// engine exploits that with a thread pool while keeping the property the
// rest of the codebase is built on -- exact reproducibility:
//
//   * every item constructs its *own* board (via the factory) and its own
//     evaluator lane, so no simulation state crosses item boundaries;
//   * a die's identity is its factory seed, and a Bode point's evaluator
//     seed is derived from (bode_seed_root, item index) with splitmix64 --
//     never from scheduling order;
//   * results land in a pre-sized slot per item.
//
// Consequently the output is bit-identical at any thread count: a
// screening job's reports are the sequential core::screen_lot's dice, so
// the two can be cross-checked in tests.
//
// Every batch shape -- a screening die, a dictionary item, a Bode point --
// is one measurement_program (an ordered list of calibrate / harmonic@f /
// thd@f stages), and one arena-backed executor runs each lane group of
// every job: it renders each distinct stage frequency's DUTs once and
// streams them, in blocks of whole periods that stay in cache, through
// every lane-major acquisition at that frequency.  batch_lanes = 1 is a
// group of width 1 on that same executor; the scalar network_analyzer /
// core::screen is the only oracle.
//
// Work enters through submit_bode / submit_screening / submit_acquisition,
// which return immediately with a job_handle: results() waits for the
// whole batch in item order (aggregate_lot folds screening reports into a
// lot_result), and next_in_order() / try_next_in_order() walk the items in
// order as they complete, on the consumer's thread; cooperative
// cancellation and worker-exception capture come with it.  run() is the
// blocking Bode sweep: one submit_bode job plus the eq. (4) bound and
// error summary of sweep_report.  Many engines can share one
// core::job_queue (options.queue), so concurrent sessions never
// oversubscribe the machine, and with it the content-keyed calibration
// share (core::engine_pool), so a later engine restores what an earlier
// one calibrated; the engine must outlive the jobs it has submitted.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "common/statistics.hpp"
#include "common/units.hpp"
#include "core/job_queue.hpp"
#include "core/screening.hpp"
#include "core/stimulus_cache.hpp"

namespace bistna {
class arena;
namespace eval {
class batch_evaluator;
class calibration_share;
} // namespace eval
} // namespace bistna

namespace bistna::core {

/// What engines may share beyond their own lifetime: the worker pool and
/// the calibration share.  A null member gives each engine a private one.
/// The share is keyed exactly by everything a calibration's rates depend
/// on (eval::calibration_key), so an engine's bytes never depend on what
/// other engines on the same handle ran before it; only the work is
/// shared.  It evicts oldest-first past a fixed cap.
struct engine_pool {
    std::shared_ptr<job_queue> queue;
    /// Grounded-calibration offset rates (eval::calibration_share).
    std::shared_ptr<eval::calibration_share> calibrations;

    engine_pool() = default;
    /// A pool-only handle (implicit, so a bare queue still fills the
    /// option): engines on it share the workers and keep private shares,
    /// so each one still pays its own calibrations.
    engine_pool(std::shared_ptr<job_queue> shared_queue)
        : queue(std::move(shared_queue)) {}
    engine_pool(std::shared_ptr<job_queue> shared_queue,
                std::shared_ptr<eval::calibration_share> shared_calibrations)
        : queue(std::move(shared_queue)), calibrations(std::move(shared_calibrations)) {}
};

struct sweep_engine_options {
    /// Worker threads of the engine's own pool; 0 picks
    /// std::thread::hardware_concurrency().  Ignored when `queue.queue` is
    /// set.
    std::size_t threads = 0;
    /// Run jobs on this shared pool instead of a private one: any number
    /// of engines (concurrent Bode sessions, screening lots, dictionary
    /// builds) then draw from one set of workers.  A bare
    /// std::shared_ptr<job_queue> converts to a pool-only handle; a handle
    /// that also carries a calibration share lets every engine on it reuse
    /// the grounded calibrations of the engines before it (the screening
    /// daemon's shape).  Empty gives the engine a private queue sized by
    /// `threads` and a private share.
    engine_pool queue;
    /// Dice, dictionary items or Bode points evaluated in lockstep per work
    /// item through the SoA banks (threads x lanes in flight overall).  1
    /// is a group of width 1 on the same executor; any lane count is
    /// bit-identical to the scalar network_analyzer, because lanes own
    /// independent seeded streams and never interact.
    std::size_t batch_lanes = 1;
};

/// Aggregated outcome of a parallel Bode batch.
struct sweep_report {
    std::vector<frequency_point> points; ///< in input frequency order
    std::size_t threads_used = 0;
    double elapsed_seconds = 0.0;

    // Accuracy aggregates against each point's drawn-instance ground truth.
    double worst_gain_error_db = 0.0;
    double worst_phase_error_deg = 0.0;
    double max_gain_bound_width_db = 0.0;
    /// Points whose guaranteed gain interval misses the true gain (should be
    /// 0 if the eq. (4) bounds hold).
    std::size_t gain_bound_violations = 0;
    summary gain_error_db_summary; ///< |measured - ideal| distribution
};

/// Thread-pool batch engine over network-analyzer measurements.  Every
/// board it runs shares the engine's stimulus-record cache: the
/// clock-normalized staircase is rendered once per (design, amplitude,
/// periods, settle) and reused by every frequency point / die that needs
/// it, bit-identical to rendering per item.
class sweep_engine {
public:
    /// The factory must be a pure function of its seed (it is invoked once
    /// per work item, possibly concurrently).
    sweep_engine(board_factory factory, analyzer_settings settings,
                 sweep_engine_options options = {});

    /// Blocking Bode sweep: submit_bode's points, waited for, with the
    /// accuracy aggregates of sweep_report.
    sweep_report run(const std::vector<hertz>& frequencies, std::uint64_t board_seed = 1);

    /// One item of a generic acquisition batch.  `make_board` must be a
    /// pure function (it is invoked once, possibly on a worker thread); the
    /// engine attaches its shared stimulus cache to the result.
    struct acquisition_item {
        std::function<demonstrator_board()> make_board;
        eval::evaluator_config evaluator;
    };

    /// The measurement program every item runs: the scalar screening
    /// sequence (calibration-path characterization, one fundamental
    /// acquisition per frequency, optionally harmonics 1..max for THD).
    struct acquisition_program {
        std::vector<hertz> frequencies;
        std::size_t distortion_max_harmonic = 0; ///< 0 skips the THD stage
        hertz distortion_f{0.0}; ///< 0 picks frequencies.front()
    };

    /// Everything one item's program measured.
    struct acquisition_result {
        stimulus_calibration calibration;
        double offset_rate = 0.0; ///< calibrated in-phase offset count rate
        std::vector<frequency_point> points; ///< one per program frequency
        /// True when the program measured distortion; thd_db is NaN (never
        /// a fake 0 dB reading) until then.
        bool has_thd = false;
        double thd_db = std::numeric_limits<double>::quiet_NaN();
    };

    // --- Jobs ------------------------------------------------------------
    //
    // submit returns as soon as the job is on the queue.  Every item is
    // bit-identical at any {threads, batch_lanes} combination and any
    // completion order (seeds derive from the item index, never from
    // scheduling).  The engine must outlive the handles' jobs; the
    // optional `on_published` notifier runs on worker threads, as
    // described at job_queue::submit.

    /// Bode batch: item i is frequencies[i] measured on the board drawn
    /// with `board_seed`.  The paper's one-time calibration runs
    /// synchronously here -- on the caller's thread -- and every streamed
    /// point reuses it.
    job_handle<frequency_point>
    submit_bode(std::vector<hertz> frequencies, std::uint64_t board_seed = 1);

    /// Screening lot: item i is the report of die seed first_seed + i,
    /// bit-identical to calling core::screen on factory(first_seed + i)
    /// (including the diagnostic continue-after-self-test and distortion
    /// options).
    job_handle<screening_report>
    submit_screening(const spec_mask& mask, std::size_t dice, std::uint64_t first_seed = 1,
                     const screening_options& screening = {},
                     std::function<void()> on_published = nullptr);

    /// Generic lockstep acquisition -- a screening lot varies the die seed,
    /// the diag trajectory builder a fault severity: item i is items[i]
    /// run through the program, bit-identical to network_analyzer::
    /// calibrate / measure_point / measure_distortion on its board, because
    /// it owns its seeded streams.  The items (and their board factories)
    /// are owned by the job, so the caller may drop its copies immediately.
    job_handle<acquisition_result>
    submit_acquisition(std::vector<acquisition_item> items, acquisition_program program,
                       std::function<void()> on_published = nullptr);

    /// Worker count a job uses (the shared or private pool's).
    std::size_t threads() const noexcept { return queue_->threads(); }

private:
    /// The ordered calibrate / harmonic@f / thd@f stages every lane of a job
    /// runs -- a screening die, a dictionary item and a Bode point are each
    /// one -- and one of those stages.  Defined in sweep_engine.cpp.
    struct measurement_program;
    struct program_stage;

    /// One lane of an executed program: its board, its evaluator, and the
    /// frequency its f = 0 stages measure at.
    struct program_lane {
        demonstrator_board board;
        eval::evaluator_config evaluator;
        hertz f{0.0};
    };

    /// The executor: run `program` over one lane group in lockstep, lane l's
    /// outcome into results[l] (calibration = the one injected or measured
    /// by the calibrate stage, points = one per harmonic stage).  Each
    /// lane's staircase is fetched once, at the longest stage, and every
    /// stage reads its prefix.  The calibrate stage and the self-test drop
    /// run first; then measure_stages streams the rest.
    void execute(const measurement_program& program, std::vector<program_lane>& lanes,
                 acquisition_result* results, bistna::arena& scratch);

    /// Stimulus characterization of the active lanes straight from their
    /// cached staircases (stairs[l] is lane l's, as execute fetched it),
    /// the tail after the settle prefix streamed a block at a time: read in
    /// place when every lane holds the same record, a block transposed
    /// into `scratch` otherwise.
    std::vector<eval::harmonic_measurement>
    calibrate_lanes(const std::vector<stimulus_cache::record_ptr>& stairs,
                    const std::vector<std::size_t>& active, eval::batch_evaluator& evaluators,
                    bistna::arena& scratch);

    /// The harmonic and thd stages of the active lanes.  Every acquisition
    /// is set up first, in program order, so each lane's RNG ends where
    /// measuring stage by stage leaves it.  Then each distinct stage
    /// frequency's DUTs are prepared once and stepped from their
    /// staircases over the settle prefix and the longest tail a stage at
    /// that frequency reads, one block of whole periods at a time in
    /// `scratch`, each block feeding every acquisition at that frequency
    /// that still needs samples: harmonic@f and thd@f run the same reset /
    /// prepare / settle / tail sequence, so the shorter record is a prefix
    /// of the longer.  The state-space bank steps the lanes when every one
    /// is a linear realization of bankable order, otherwise each lane's
    /// process_block does, its state kept between blocks -- bit-identical
    /// either way, and to a whole-record render.
    void measure_stages(std::span<const program_stage> stages, std::vector<program_lane>& lanes,
                        const std::vector<stimulus_cache::record_ptr>& stairs,
                        const std::vector<std::size_t>& active,
                        eval::batch_evaluator& evaluators, acquisition_result* results,
                        bistna::arena& scratch);

    board_factory factory_;
    analyzer_settings settings_;
    sweep_engine_options options_;
    std::shared_ptr<stimulus_cache> stimulus_cache_;
    /// The calibration share: thread-safe, the handle's when it carries
    /// one, else private.
    std::shared_ptr<eval::calibration_share> calibration_share_;
    /// Declared last on purpose: a private queue's destructor cancels and
    /// joins in-flight jobs whose closures use the members above, so it
    /// must be destroyed (= workers joined) before any of them.
    std::shared_ptr<job_queue> queue_;
};

/// Seed for work item `index` of a batch rooted at `base_seed` (splitmix64
/// finalizer; scheduling-independent by construction).
std::uint64_t sweep_item_seed(std::uint64_t base_seed, std::size_t index) noexcept;

/// Root of a Bode batch's evaluator seeds: the shared calibration runs
/// with sweep_item_seed(bode_seed_root, 0), point i with
/// sweep_item_seed(bode_seed_root, i + 1).
inline constexpr std::uint64_t bode_seed_root = 0x5EEDBA7C4E57ULL;

} // namespace bistna::core
