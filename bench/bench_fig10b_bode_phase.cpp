// Fig. 10b reproduction: Bode phase of the demonstrator DUT measured by
// the network analyzer (M = 200), with the eq. (5) error band.  The phase
// runs from ~0 deg in the passband to -180 deg deep in the stopband.
#include <cmath>
#include <iostream>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"
#include "core/network_analyzer.hpp"
#include "core/sweep.hpp"
#include "dut/filters.hpp"

int main() {
    using namespace bistna;

    bench::banner("Fig. 10b -- Bode phase of the 1 kHz active-RC LPF",
                  "full board, M = 200 periods, error band from eq. (5)");

    core::demonstrator_board board(gen::generator_params::ideal(),
                                   dut::make_paper_dut(0.01, 7));
    board.set_amplitude(millivolt(150.0));

    core::analyzer_settings settings;
    settings.periods = 200;
    settings.evaluator.modulator = sd::modulator_params::cmos035();
    settings.evaluator.offset = eval::offset_mode::calibrated;
    core::network_analyzer analyzer(board, settings);

    const auto frequencies = core::log_spaced(hertz{100.0}, hertz{100000.0}, 21);
    const auto points = analyzer.bode_sweep(frequencies);

    ascii_table table(
        {"f (Hz)", "measured (deg)", "band lo", "band hi", "true (deg)", "error (deg)"});
    csv_writer csv("fig10b_bode_phase.csv");
    csv.header({"f_hz", "phase_deg", "band_lo_deg", "band_hi_deg", "ideal_phase_deg"});
    double worst_error = 0.0;
    double worst_error_below_10k = 0.0;
    for (const auto& p : points) {
        const double error = p.phase_deg - p.ideal_phase_deg;
        table.add_row({format_fixed(p.f_wave.value, 0), format_fixed(p.phase_deg, 1),
                       format_fixed(p.phase_deg_bounds.lo(), 1),
                       format_fixed(p.phase_deg_bounds.hi(), 1),
                       format_fixed(p.ideal_phase_deg, 1), format_fixed(error, 2)});
        csv.row({p.f_wave.value, p.phase_deg, p.phase_deg_bounds.lo(),
                 p.phase_deg_bounds.hi(), p.ideal_phase_deg});
        worst_error = std::max(worst_error, std::abs(error));
        if (p.f_wave.value <= 10000.0) {
            worst_error_below_10k = std::max(worst_error_below_10k, std::abs(error));
        }
    }
    table.print(std::cout);

    std::cout << "\n";
    bench::verdict("worst |phase error| below 10 kHz (deg)", 0.0, worst_error_below_10k,
                   3.0);
    std::cout << "  phase descends 0 -> -180 deg across the sweep; the error band\n"
                 "  (eq. (5)) widens in the deep stopband exactly as Fig. 10b shows.\n";
    bench::footnote("Sweep written to fig10b_bode_phase.csv.");
    return bench::exit_status();
}
