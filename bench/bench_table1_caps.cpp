// Table I reproduction: re-derive the generator biquad's normalized
// capacitor values from the design intent (resonance at f_gen/16, pole
// radius ~0.9625, passband gain 2) and compare against the paper's values.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench_util.hpp"
#include "common/math_util.hpp"
#include "common/table.hpp"
#include "sc/analysis.hpp"

int main() {
    using namespace bistna;

    bench::banner("Table I -- normalized capacitor values of the generator biquad",
                  "design_biquad() inverts the specs; paper values for comparison");

    // What the paper's values actually realize:
    const auto paper_caps = sc::biquad_caps::table1();
    const auto info = sc::analyze_biquad(paper_caps);
    std::cout << "Analysis of the paper's Table I values:\n"
              << "  pole angle   : fs / " << format_fixed(two_pi / info.pole_angle, 3)
              << "   (design target fs/16)\n"
              << "  pole radius  : " << format_fixed(info.pole_radius, 4) << "  (Q = "
              << format_fixed(info.q_factor, 2) << ")\n"
              << "  gain @ fs/16 : " << format_fixed(info.gain_at_16th, 3)
              << "  (Fig. 8a measures amplitude = 2 x (V_A+ - V_A-))\n\n";

    // Re-derive the capacitor set from those specs.
    sc::biquad_design_spec spec;
    spec.normalized_f0 = info.pole_angle / two_pi;
    spec.pole_radius = info.pole_radius;
    spec.passband_gain = info.gain_at_16th;
    spec.total_cap_scale = paper_caps.b + paper_caps.f;
    const auto designed = sc::design_biquad(spec);

    ascii_table table({"capacitor", "paper (Table I)", "re-derived", "error (%)"});
    double worst_error_pct = 0.0;
    auto row = [&](const char* name, double paper, double derived) {
        const double error_pct = 100.0 * (derived - paper) / paper;
        worst_error_pct = std::max(worst_error_pct, std::abs(error_pct));
        table.add_row({name, format_fixed(paper, 3), format_fixed(derived, 3),
                       format_fixed(error_pct, 3)});
    };
    row("A", paper_caps.a, designed.a);
    row("B", paper_caps.b, designed.b);
    row("C", paper_caps.c, designed.c);
    row("D", paper_caps.d, designed.d);
    row("F", paper_caps.f, designed.f);
    table.print(std::cout);
    std::cout << "\n";
    bench::verdict("worst re-derivation |error| (%)", 0.0, worst_error_pct, 0.4);

    bench::footnote("Cin = CI(t): the time-variant array sin(k*pi/8), k = 0..4 (eq. (2)).\n"
                    "The re-derivation closes to <0.4 %: Table I is exactly the\n"
                    "two-integrator-loop realization of an fs/16 resonator with Q ~ 5\n"
                    "and passband gain 2.");
    return bench::exit_status();
}
