// Ablation A4: why 16 steps per period?
//
// The generator quantizes the sine into P steps: P distinct capacitor
// magnitudes cost area (P/4 unit-ratioed caps for a quarter-wave-symmetric
// sine), while the zero-order-hold images sit at (P -/+ 1) f_wave with
// ~1/(P -/+ 1) amplitude.  Sweeping P with the programmable-generator
// extension shows the paper's P = 16 as the area/purity compromise.
#include <cmath>
#include <iostream>

#include "bench_util.hpp"
#include "common/csv.hpp"
#include "common/math_util.hpp"
#include "common/table.hpp"
#include "dsp/goertzel.hpp"
#include "dsp/resample.hpp"
#include "dsp/spectrum.hpp"
#include "gen/programmable.hpp"

int main() {
    using namespace bistna;

    bench::banner("Ablation A4 -- steps per period (the paper's P = 16)",
                  "capacitor count vs hold-image frequency/level vs in-band THD");

    ascii_table table({"P", "caps needed", "image at", "image level (dB)",
                       "in-band THD (dB)", "fundamental (V)"});
    csv_writer csv("ablation_steps.csv");
    csv.header({"steps", "caps", "image_multiple", "image_db", "thd_db"});

    double image_db_16 = 0.0;
    for (std::size_t p : {8UL, 16UL, 32UL, 64UL}) {
        const auto pattern = gen::step_pattern::quantized_sine(p);
        gen::programmable_generator::params config; // non-ideal defaults
        config.seed = 11;
        gen::programmable_generator generator(pattern, config);
        generator.set_amplitude(0.25);
        generator.settle(64);
        const auto wave = generator.generate(p * 2048);

        // In-band quality (discrete-time, like a sampled-data application).
        // Cap the harmonic count below Nyquist/f_wave so folded harmonics
        // never land back on the fundamental (an issue only for small P).
        const std::size_t harmonics = std::min<std::size_t>(7, p / 2 - 1);
        const auto metrics =
            dsp::analyze_tone(wave, static_cast<double>(p), 1.0, harmonics);

        // Continuous-time hold image at (P-1) f_wave via ZOH upsampling.
        const auto held = dsp::zoh_upsample(wave, 4);
        const std::vector<double> tail(held.end() -
                                           static_cast<long>(std::min<std::size_t>(
                                               held.size(), 4 * p * 512)),
                                       held.end());
        const double fund = dsp::estimate_tone(tail, 1.0 / (4.0 * p), 1.0).amplitude;
        const double image =
            dsp::estimate_tone(tail, (static_cast<double>(p) - 1.0) / (4.0 * p), 1.0)
                .amplitude;
        const double image_db = 20.0 * std::log10(image / fund);
        if (p == 16) {
            image_db_16 = image_db;
        }

        table.add_row({std::to_string(p), std::to_string(pattern.level_count()),
                       std::to_string(p - 1) + " f_wave", format_fixed(image_db, 1),
                       format_fixed(metrics.thd_db, 1),
                       format_fixed(metrics.fundamental_amplitude, 3)});
        csv.row({static_cast<double>(p), static_cast<double>(pattern.level_count()),
                 static_cast<double>(p - 1), image_db, metrics.thd_db});
    }
    table.print(std::cout);

    std::cout << "\n";
    bench::verdict("P = 16 hold image (dB), ~ -20 log10(P - 1)", -20.0 * std::log10(15.0),
                   image_db_16, 1.0);
    std::cout << "  image level follows ~ -20 log10(P - 1): each doubling of P buys\n"
                 "  ~6 dB of image suppression and one octave of separation, at the\n"
                 "  cost of doubling the capacitor array.\n";
    bench::footnote(
        "P = 16 gives images at 15 f_wave (" + format_fixed(image_db_16, 1) +
        " dB before any filtering,\n"
        "easily removed off-band) from only four capacitors -- the paper's\n"
        "sweet spot.  In-band THD even degrades slightly at larger P: with\n"
        "the Table-I pole radius fixed, a lower normalized f0 = 1/P means a\n"
        "lower-Q smoothing filter and less harmonic attenuation.  The step\n"
        "count buys image placement, not in-band purity.\n"
        "CSV: ablation_steps.csv");
    return bench::exit_status();
}
