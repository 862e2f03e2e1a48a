// Concurrent-session throughput of the job queue: the gate behind the
// streaming redesign.
//
// Two identical screening lots run on one shared worker pool, first
// back-to-back (submit, wait, submit, wait) and then concurrently (submit
// both, wait for both).  A pool that serializes per job, oversubscribes,
// or contends on shared state would make the concurrent pair slower than
// the sequential pair; the queue's task claiming is one atomic-ish pop per
// group, so the two orders must cost the same wall clock.  Gates:
//
//   * concurrent pair <= 1.1x the back-to-back pair (best of 3);
//   * every report of every job bit-identical to a single-threaded
//     reference lot, regardless of submission order.
//
// Writes the measurement to BENCH_job_queue.json (or argv[1]) so the perf
// trajectory is recorded run over run.
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/job_queue.hpp"
#include "core/screening.hpp"
#include "core/sweep_engine.hpp"
#include "dut/filters.hpp"
#include "gen/generator.hpp"

namespace {

using namespace bistna;

constexpr std::size_t kThreads = 4;
constexpr std::size_t kLanes = 4;
constexpr std::size_t kDice = 48;

core::board_factory paper_factory() {
    return [](std::uint64_t seed) {
        core::demonstrator_board board(gen::generator_params::ideal(),
                                       dut::make_paper_dut(0.01, seed));
        board.set_amplitude(millivolt(150.0));
        return board;
    };
}

core::analyzer_settings bench_settings() {
    core::analyzer_settings settings;
    settings.periods = 50;
    settings.settle_periods = 16;
    return settings;
}

core::sweep_engine make_engine(const std::shared_ptr<core::job_queue>& queue) {
    core::sweep_engine_options options;
    options.batch_lanes = kLanes;
    options.queue = queue;
    return core::sweep_engine(paper_factory(), bench_settings(), options);
}

double seconds_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

bool reports_identical(const std::vector<core::screening_report>& a,
                       const std::vector<core::screening_report>& b) {
    if (a.size() != b.size()) {
        return false;
    }
    for (std::size_t die = 0; die < a.size(); ++die) {
        if (a[die].passed != b[die].passed ||
            a[die].stimulus_volts != b[die].stimulus_volts ||
            a[die].limits.size() != b[die].limits.size()) {
            return false;
        }
        for (std::size_t i = 0; i < a[die].limits.size(); ++i) {
            if (a[die].limits[i].measured_db != b[die].limits[i].measured_db) {
                return false;
            }
        }
    }
    return true;
}

void write_json(const std::string& path, double sequential_seconds,
                double concurrent_seconds, double ratio, bool identical) {
    std::ofstream out(path);
    if (!out) {
        std::cerr << "WARNING: could not write " << path << "\n";
        return;
    }
    out << "{\n"
        << "  \"bench\": \"job_queue\",\n"
        << "  \"dice_per_job\": " << kDice << ",\n"
        << "  \"threads\": " << kThreads << ",\n"
        << "  \"batch_lanes\": " << kLanes << ",\n"
        << "  \"sequential_pair_seconds\": " << sequential_seconds << ",\n"
        << "  \"concurrent_pair_seconds\": " << concurrent_seconds << ",\n"
        << "  \"concurrent_over_sequential\": " << ratio << ",\n"
        << "  \"bit_identical\": " << (identical ? "true" : "false") << "\n"
        << "}\n";
    std::cout << "perf record written to " << path << "\n";
}

} // namespace

int main(int argc, char** argv) {
    bench::banner("job-queue concurrent sessions",
                  "two screening lots on one shared pool: back-to-back vs concurrent "
                  "submission (" + std::to_string(kThreads) + " threads x " +
                      std::to_string(kLanes) + " lanes, " + std::to_string(kDice) +
                      " dice per lot)");

    const auto mask = core::spec_mask::paper_lowpass();

    // The synchronous reference both jobs must reproduce bit for bit.
    core::sweep_engine_options reference_options;
    reference_options.threads = 1;
    core::sweep_engine reference_engine(paper_factory(), bench_settings(),
                                        reference_options);
    const auto reference_a =
        reference_engine.submit_screening(mask, kDice, /*first_seed=*/1).results();
    const auto reference_b =
        reference_engine.submit_screening(mask, kDice, /*first_seed=*/501).results();

    double best_sequential = 0.0;
    double best_concurrent = 0.0;
    bool identical = true;
    for (int repeat = 0; repeat < 3; ++repeat) {
        const auto queue = std::make_shared<core::job_queue>(kThreads);
        auto engine_a = make_engine(queue);
        auto engine_b = make_engine(queue);

        const auto sequential_start = std::chrono::steady_clock::now();
        const auto seq_a = engine_a.submit_screening(mask, kDice, /*first_seed=*/1).results();
        const auto seq_b =
            engine_b.submit_screening(mask, kDice, /*first_seed=*/501).results();
        const double sequential_seconds = seconds_since(sequential_start);

        const auto concurrent_start = std::chrono::steady_clock::now();
        auto job_a = engine_a.submit_screening(mask, kDice, /*first_seed=*/1);
        auto job_b = engine_b.submit_screening(mask, kDice, /*first_seed=*/501);
        const auto conc_a = job_a.results();
        const auto conc_b = job_b.results();
        const double concurrent_seconds = seconds_since(concurrent_start);

        identical = identical && reports_identical(seq_a, reference_a) &&
                    reports_identical(seq_b, reference_b) &&
                    reports_identical(conc_a, reference_a) &&
                    reports_identical(conc_b, reference_b);
        if (repeat == 0 || sequential_seconds < best_sequential) {
            best_sequential = sequential_seconds;
        }
        if (repeat == 0 || concurrent_seconds < best_concurrent) {
            best_concurrent = concurrent_seconds;
        }
    }

    const double ratio = best_sequential > 0.0 ? best_concurrent / best_sequential : 0.0;
    std::cout << "\ntwo " << kDice << "-die lots, best of 3:\n"
              << "  back-to-back: " << best_sequential << " s\n"
              << "  concurrent:   " << best_concurrent << " s\n"
              << "  concurrent / back-to-back: " << ratio << "x\n"
              << "  all reports bit-identical to synchronous reference: "
              << (identical ? "YES" : "NO") << "\n";

    write_json(argc > 1 ? argv[1] : "BENCH_job_queue.json", best_sequential,
               best_concurrent, ratio, identical);

    bench::footnote("Workers claim one task per job in rotation off one pool; per-die "
                    "seeds are index-derived, so interleaving two lots changes "
                    "scheduling and nothing else.");

    bool failed = false;
    if (!identical) {
        std::cerr << "FAILURE: a streamed job diverged from the synchronous reference\n";
        failed = true;
    }
    if (ratio > 1.1) {
        std::cerr << "FAILURE: concurrent pair took " << ratio
                  << "x the back-to-back pair (gate: <= 1.1x)\n";
        failed = true;
    }
    return failed ? 1 : 0;
}
