// Serial-vs-parallel throughput of the sweep engine.
//
// Runs the same Bode batch (paper DUT, Fig. 10a/b frequency grid) through
// the sweep engine's serial fallback and through its thread pool at the
// machine's hardware concurrency, checks the outputs are bit-identical, and
// reports the speedup.  Repeats the exercise for a Monte Carlo screening
// lot cross-checked against the sequential core::screen_lot.
#include <chrono>
#include <cstring>
#include <iostream>
#include <thread>

#include "bench_util.hpp"
#include "core/screening.hpp"
#include "core/sweep.hpp"
#include "core/sweep_engine.hpp"
#include "dut/filters.hpp"
#include "gen/generator.hpp"

namespace {

using namespace bistna;

core::board_factory paper_factory() {
    return [](std::uint64_t seed) {
        core::demonstrator_board board(gen::generator_params::ideal(),
                                       dut::make_paper_dut(0.01, seed));
        board.set_amplitude(millivolt(150.0));
        return board;
    };
}

bool points_identical(const std::vector<core::frequency_point>& a,
                      const std::vector<core::frequency_point>& b) {
    if (a.size() != b.size()) {
        return false;
    }
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].f_wave.value != b[i].f_wave.value || a[i].gain_db != b[i].gain_db ||
            a[i].gain_db_bounds != b[i].gain_db_bounds || a[i].phase_deg != b[i].phase_deg ||
            a[i].phase_deg_bounds != b[i].phase_deg_bounds) {
            return false;
        }
    }
    return true;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

} // namespace

int main() {
    using namespace bistna;

    const unsigned hw = std::thread::hardware_concurrency();
    bench::banner("parallel sweep engine",
                  "serial-vs-parallel Bode batch + screening lot (hardware threads: " +
                      std::to_string(hw) + ")");

    core::analyzer_settings settings;
    settings.periods = 200;
    const auto frequencies = core::log_spaced(hertz{100.0}, kilohertz(20.0), 17);

    core::sweep_engine_options serial_options;
    serial_options.threads = 1;
    core::sweep_engine serial_engine(paper_factory(), settings, serial_options);
    const auto serial = serial_engine.run(frequencies);

    core::sweep_engine_options parallel_options; // threads = 0 -> hardware concurrency
    core::sweep_engine parallel_engine(paper_factory(), settings, parallel_options);
    const auto parallel = parallel_engine.run(frequencies);

    const bool identical = points_identical(serial.points, parallel.points);
    const double speedup = parallel.elapsed_seconds > 0.0
                               ? serial.elapsed_seconds / parallel.elapsed_seconds
                               : 0.0;
    std::cout << "\nBode batch (" << frequencies.size() << " points, M = " << settings.periods
              << "):\n"
              << "  serial   (1 thread):   " << serial.elapsed_seconds << " s\n"
              << "  parallel (" << parallel.threads_used << " threads):  "
              << parallel.elapsed_seconds << " s\n"
              << "  speedup: " << speedup << "x\n"
              << "  outputs bit-identical: " << (identical ? "YES" : "NO") << "\n"
              << "  worst |gain error|: " << serial.worst_gain_error_db << " dB, bound "
              << "violations: " << serial.gain_bound_violations << "\n";

    // Screening lot: engine vs the sequential reference implementation.
    const auto mask = core::spec_mask::paper_lowpass();
    const std::size_t dice = 8;

    const auto lot_start = std::chrono::steady_clock::now();
    const auto lot_serial =
        core::screen_lot(paper_factory(), settings, mask, dice, /*first_seed=*/1);
    const double lot_serial_s = seconds_since(lot_start);

    const auto lot_parallel_start = std::chrono::steady_clock::now();
    core::sweep_engine lot_engine(paper_factory(), settings, parallel_options);
    const auto lot_parallel = core::aggregate_lot(
        lot_engine.submit_screening(mask, dice, /*first_seed=*/1).results());
    const double lot_parallel_s = seconds_since(lot_parallel_start);

    const bool lot_match = lot_serial.dice == lot_parallel.dice &&
                           lot_serial.passed == lot_parallel.passed;
    std::cout << "\nScreening lot (" << dice << " dice, " << mask.limits.size()
              << " limits):\n"
              << "  sequential screen_lot: " << lot_serial_s << " s, yield "
              << lot_serial.yield() << "\n"
              << "  parallel engine:       " << lot_parallel_s << " s, yield "
              << lot_parallel.yield() << "\n"
              << "  speedup: " << (lot_parallel_s > 0.0 ? lot_serial_s / lot_parallel_s : 0.0)
              << "x, results match: " << (lot_match ? "YES" : "NO") << "\n";

    bench::footnote("A Bode sweep is embarrassingly parallel across frequency points; "
                    "per-point seeding keeps the batch bit-identical at any thread count.");

    if (!identical || !lot_match) {
        std::cerr << "FAILURE: parallel output diverged from serial reference\n";
        return 1;
    }
    if (hw >= 4 && speedup < 2.0) {
        std::cerr << "FAILURE: expected >= 2x speedup at " << hw << " hardware threads, got "
                  << speedup << "x\n";
        return 1;
    }
    return 0;
}
