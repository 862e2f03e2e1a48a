// Ablation A3: how tight is eps in [-4, 4]?
//
// Eqs. (3)-(5) guarantee the signature error is bounded by 4 counts; the
// guarantee is what makes the intervals trustworthy.  This bench measures
// the *empirical* distribution of eps over many random stimuli and
// evaluation lengths, for the ideal and the non-ideal modulator.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "common/statistics.hpp"
#include "common/table.hpp"
#include "sd/modulator.hpp"

namespace {

bistna::summary eps_distribution(const bistna::sd::modulator_params& params,
                                 std::size_t periods, std::size_t trials,
                                 std::uint64_t seed) {
    using namespace bistna;
    rng generator(seed);
    std::vector<double> eps_values;
    eps_values.reserve(trials);
    for (std::size_t t = 0; t < trials; ++t) {
        sd::sd_modulator mod(params, generator.spawn());
        mod.reset(generator.uniform(-0.5, 0.5) * params.vref);
        const double amplitude = generator.uniform(0.01, 0.65);
        const double phase = generator.uniform(0.0, two_pi);
        const std::size_t k = 1 + generator.uniform_int(3);
        double sum_y = 0.0;
        long long sum_d = 0;
        const std::size_t total = periods * 96;
        for (std::size_t n = 0; n < total; ++n) {
            const double x = amplitude * std::sin(two_pi * static_cast<double>(k * n) /
                                                      96.0 +
                                                  phase);
            const bool q = (n % (96 / k)) < (48 / k);
            sum_y += q ? x : -x;
            sum_d += mod.step(x, q);
        }
        eps_values.push_back(sum_y / params.vref - static_cast<double>(sum_d));
    }
    return summarize(std::move(eps_values));
}

} // namespace

int main() {
    using namespace bistna;

    bench::banner("Ablation A3 -- empirical eps distribution vs the [-4, 4] bound",
                  "random amplitude/phase/harmonic stimuli, 400 trials per row");

    ascii_table table({"modulator", "M", "eps p05", "median", "p95", "min", "max",
                       "bound"});
    csv_writer csv("ablation_error_bounds.csv");
    csv.header({"ideal", "periods", "p05", "median", "p95", "min", "max"});

    double global_worst = 0.0;
    for (const bool ideal : {true, false}) {
        const auto params =
            ideal ? sd::modulator_params::ideal() : sd::modulator_params::cmos035();
        for (std::size_t periods : {20UL, 200UL, 1000UL}) {
            const auto stats =
                eps_distribution(params, periods, 400, ideal ? 100 + periods : 200 + periods);
            table.add_row({ideal ? "ideal" : "cmos035", std::to_string(periods),
                           format_fixed(stats.p05, 2), format_fixed(stats.median, 2),
                           format_fixed(stats.p95, 2), format_fixed(stats.min, 2),
                           format_fixed(stats.max, 2), "4.00"});
            csv.row({ideal ? 1.0 : 0.0, static_cast<double>(periods), stats.p05,
                     stats.median, stats.p95, stats.min, stats.max});
            if (ideal) {
                global_worst =
                    std::max({global_worst, std::abs(stats.min), std::abs(stats.max)});
            }
        }
    }
    table.print(std::cout);

    std::cout << "\n";
    bench::verdict("worst ideal-modulator |eps| (bound 4)", 4.0, global_worst, 4.0);
    bench::footnote(
        "The ideal modulator never exceeds the bound (the proof object of\n"
        "ref [13]); typical errors sit well inside it, so the intervals of\n"
        "eqs. (3)-(5) are conservative but honest.  The cmos035 rows show\n"
        "the raw (uncalibrated) signatures instead drifting as\n"
        "offset x MN / Vref (-3.3 counts per 20 periods here) -- a direct\n"
        "quantification of why the paper's offset-cancellation arithmetic is\n"
        "mandatory, after which only the bounded part remains.\n"
        "CSV: ablation_error_bounds.csv");
    return bench::exit_status();
}
