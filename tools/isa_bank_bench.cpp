// Per-ISA timing of sd::modulator_bank: ns per lane-sample, the median of 15
// timed calls after one warm-up call.
//
//   isa_bank_bench <lanes> <mode>
//     ideal, cmos  an acquisition's I/Q bank pair over a 38,400-sample
//                  lane-major record, per channel lane-sample: the pair
//                  entry where the bank has one, else one single-bank call
//                  per channel.  cmos puts each bank's lanes on one noise
//                  stream, as a screening lot's acquisitions do.
//     grounded     one bank's grounded calibration run
//     single       one bank's accumulate_lane_major
//
// Built once per -march, against a source tree, by tools/isa_bank_bench.sh.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "sd/modulator_bank.hpp"

namespace {

template <typename Bank>
void run_pair(Bank& in_phase, Bank& quadrature, const double* xs, const double* qsigns_i,
              const double* qsigns_q, const double* acc_signs, std::size_t count, double* acc_i,
              double* acc_q) {
    if constexpr (requires { &Bank::accumulate_pair_lane_major; }) {
        Bank::accumulate_pair_lane_major(in_phase, quadrature, xs, qsigns_i, qsigns_q, acc_signs,
                                         count, acc_i, acc_q);
    } else {
        in_phase.accumulate_lane_major(xs, qsigns_i, acc_signs, count, acc_i);
        quadrature.accumulate_lane_major(xs, qsigns_q, acc_signs, count, acc_q);
    }
}

} // namespace

int main(int argc, char** argv) {
    if (argc != 3) {
        std::fprintf(stderr, "usage: isa_bank_bench <lanes> <ideal|cmos|grounded|single>\n");
        return 2;
    }
    const std::size_t lanes = std::strtoul(argv[1], nullptr, 10);
    const std::string mode = argv[2];
    if (lanes == 0 || (mode != "ideal" && mode != "cmos" && mode != "grounded" && mode != "single")) {
        std::fprintf(stderr, "isa_bank_bench: bad lanes or mode\n");
        return 2;
    }
    constexpr std::size_t samples = 38400;
    const bool pair = mode == "ideal" || mode == "cmos";
    const auto params = mode == "cmos" ? bistna::sd::modulator_params::cmos035()
                                       : bistna::sd::modulator_params::ideal();
    std::vector<double> xs(samples * lanes);
    std::vector<double> qsigns_i(samples);
    std::vector<double> qsigns_q(samples);
    const std::vector<double> acc_signs(samples, 1.0);
    bistna::rng stimulus(7);
    for (double& x : xs) {
        x = stimulus.uniform(-0.6, 0.6);
    }
    for (std::size_t n = 0; n < samples; ++n) {
        qsigns_i[n] = (n % 96) < 48 ? 1.0 : -1.0;
        qsigns_q[n] = ((n + 24) % 96) < 48 ? 1.0 : -1.0;
    }

    std::vector<double> acc_i(lanes);
    std::vector<double> acc_q(lanes);
    std::vector<double> ns;
    for (int call = 0; call < 16; ++call) {
        bistna::sd::modulator_bank in_phase;
        bistna::sd::modulator_bank quadrature;
        for (std::size_t l = 0; l < lanes; ++l) {
            in_phase.add_lane(params, bistna::rng(11));
            quadrature.add_lane(params, bistna::rng(12));
        }
        const auto start = std::chrono::steady_clock::now();
        if (pair) {
            run_pair(in_phase, quadrature, xs.data(), qsigns_i.data(), qsigns_q.data(),
                     acc_signs.data(), samples, acc_i.data(), acc_q.data());
        } else if (mode == "grounded") {
            in_phase.accumulate_grounded(samples, acc_i.data());
        } else {
            in_phase.accumulate_lane_major(xs.data(), qsigns_i.data(), acc_signs.data(), samples,
                                           acc_i.data());
        }
        const auto stop = std::chrono::steady_clock::now();
        const double lane_samples =
            static_cast<double>(samples * lanes) * (pair ? 2.0 : 1.0);
        if (call > 0) {
            ns.push_back(std::chrono::duration<double, std::nano>(stop - start).count() /
                         lane_samples);
        }
    }
    std::sort(ns.begin(), ns.end());
    std::printf("%.3f\n", ns[ns.size() / 2]);
    // Reading the accumulators keeps the timed calls from being optimized out.
    return acc_i[0] + acc_q[0] == 0.5 ? 1 : 0;
}
