// Fig. 9 reproduction: harmonic-component measurements as a function of
// the number of samples MN.
//
// Paper setup: multitone A1 = 0.2 V, A2 = 0.02 V, A3 = 0.002 V fed
// directly to the evaluator from the ATE; N = 96; M swept 20..1000;
// twenty-five repeated runs show the spread collapsing as MN grows, with
// the three series converging to about -11 / -31 / -51 "dBm" (dB relative
// to the 0.7 V modulator full scale).
#include <iostream>
#include <vector>

#include "ate/multitone.hpp"
#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/statistics.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "eval/evaluator.hpp"

int main() {
    using namespace bistna;

    bench::banner("Fig. 9 -- evaluator convergence vs number of samples MN",
                  "multitone 0.2/0.02/0.002 V, N = 96, M = 20..1000, 25 runs");

    const std::vector<std::size_t> checkpoints = {20, 50, 100, 200, 300, 500, 700, 1000};
    const std::size_t runs = 25;
    const double truths[3] = {0.2, 0.02, 0.002};
    const double paper_dbfs[3] = {-11.0, -31.0, -51.0};

    const auto stimulus = ate::multitone_source::fig9_stimulus();

    csv_writer csv("fig9_convergence.csv");
    csv.header({"k", "run", "mn", "amplitude_dbfs", "bound_lo_dbfs", "bound_hi_dbfs"});

    ascii_table table({"k", "MN", "mean (dBFS)", "spread p05..p95 (dB)", "paper (dBm)"});
    for (std::size_t k = 1; k <= 3; ++k) {
        // Per-checkpoint statistics across the 25 runs.
        std::vector<std::vector<double>> readings(checkpoints.size());
        for (std::size_t run = 0; run < runs; ++run) {
            eval::evaluator_config config;
            config.modulator = sd::modulator_params::cmos035();
            config.offset = eval::offset_mode::calibrated;
            config.seed = 1000 + run; // fresh noise/initial state per run
            eval::sinewave_evaluator evaluator(config);
            const auto series =
                evaluator.amplitude_convergence(stimulus.as_source(), k, checkpoints);
            for (std::size_t c = 0; c < series.size(); ++c) {
                readings[c].push_back(series[c].dbfs);
                csv.row({static_cast<double>(k), static_cast<double>(run),
                         static_cast<double>(checkpoints[c] * 96), series[c].dbfs,
                         series[c].bounds_dbfs.lo(), series[c].bounds_dbfs.hi()});
            }
        }
        for (std::size_t c = 0; c < checkpoints.size(); ++c) {
            if (c != 0 && c != 3 && c + 1 != checkpoints.size()) {
                continue; // print M = 20, 200, 1000 rows
            }
            const auto stats = summarize(readings[c]);
            table.add_row({std::to_string(k), std::to_string(checkpoints[c] * 96),
                           format_fixed(stats.mean, 2),
                           format_fixed(stats.p95 - stats.p05, 3),
                           format_fixed(paper_dbfs[k - 1], 0)});
        }
        const auto final_stats = summarize(readings.back());
        bench::verdict('A' + std::to_string(k) + " at MN = 96000 (dBFS)",
                       amplitude_to_dbfs(truths[k - 1], eval::full_scale_reference),
                       final_stats.mean, 0.3);
    }
    std::cout << "\n";
    table.print(std::cout);

    bench::footnote(
        "All 25 x 8 x 3 points written to fig9_convergence.csv.  As in the\n"
        "paper: the spread shrinks like 1/MN (the eps/MN quantization floor),\n"
        "the second and third harmonics sit 20 and 40 dB below A1, and the\n"
        "evaluator itself never limits the analyzer's dynamic range --\n"
        "accuracy is bought with evaluation time (M).");
    return bench::exit_status();
}
