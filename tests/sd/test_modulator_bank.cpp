// Tests for the lockstep SoA modulator bank: per-lane bit-identity with
// the scalar sd_modulator reference, the eqs. (3)-(5) bounded-state / eps
// property on every lane, and invariance under lane count and lane
// permutation (lanes never interact).
#include "common/error.hpp"
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <vector>

#include "common/math_util.hpp"
#include "common/normal.hpp"
#include "common/rng.hpp"
#include "sd/modulator.hpp"
#include "sd/modulator_bank.hpp"

namespace {

using bistna::sd::modulator_bank;
using bistna::sd::modulator_params;
using bistna::sd::sd_modulator;

/// Configurations modulator_params::validate() rejects: non-positive or
/// NaN CI/CF, Vref or integrator swing, negative or NaN noise, and a NaN in
/// any other field.
std::vector<modulator_params> invalid_configs() {
    const double nan = std::numeric_limits<double>::quiet_NaN();
    std::vector<modulator_params> configs;
    for (const double v : {0.0, -1.0, nan}) {
        modulator_params params = modulator_params::ideal();
        params.ci_over_cf = v;
        configs.push_back(params);
        params = modulator_params::ideal();
        params.vref = v;
        configs.push_back(params);
        params = modulator_params::ideal();
        params.integrator_swing = v;
        configs.push_back(params);
    }
    for (const double v : {-1.0e-6, nan}) {
        modulator_params params = modulator_params::cmos035();
        params.noise_rms = v;
        configs.push_back(params);
    }
    for (double modulator_params::*field :
         {&modulator_params::dc_gain_db, &modulator_params::settling_error,
          &modulator_params::input_offset, &modulator_params::comparator_offset,
          &modulator_params::comparator_hysteresis}) {
        modulator_params params = modulator_params::ideal();
        params.*field = nan;
        configs.push_back(params);
    }
    return configs;
}

/// A spread of lane configurations covering the documented non-idealities.
std::vector<modulator_params> lane_configs() {
    std::vector<modulator_params> configs;
    configs.push_back(modulator_params::ideal());
    configs.push_back(modulator_params::cmos035()); // noisy lane
    modulator_params leaky = modulator_params::ideal();
    leaky.dc_gain_db = 60.0;
    configs.push_back(leaky);
    modulator_params latch = modulator_params::ideal();
    latch.comparator_offset = 2.0e-3;
    latch.comparator_hysteresis = 1.0e-3;
    latch.input_offset = 1.5e-3;
    configs.push_back(latch);
    modulator_params clipping = modulator_params::ideal();
    clipping.integrator_swing = 0.2;
    configs.push_back(clipping);
    return configs;
}

TEST(ModulatorBank, EveryLaneBitIdenticalToScalarModulator) {
    const auto configs = lane_configs();
    modulator_bank bank;
    std::vector<sd_modulator> scalars;
    for (std::size_t l = 0; l < configs.size(); ++l) {
        bank.add_lane(configs[l], bistna::rng(100 + l));
        scalars.emplace_back(configs[l], bistna::rng(100 + l));
    }

    bistna::rng stimulus(5);
    std::vector<double> inputs(configs.size());
    std::vector<double> bits(configs.size());
    for (std::size_t n = 0; n < 20000; ++n) {
        for (auto& x : inputs) {
            x = stimulus.uniform(-0.7, 0.7);
        }
        const bool q = stimulus.bernoulli(0.5);
        bank.step(inputs.data(), q, bits.data());
        for (std::size_t l = 0; l < configs.size(); ++l) {
            const int scalar_bit = scalars[l].step(inputs[l], q);
            ASSERT_EQ(static_cast<double>(scalar_bit), bits[l]) << "lane " << l << " n " << n;
            ASSERT_EQ(scalars[l].state(), bank.state(l)) << "lane " << l << " n " << n;
        }
    }
    for (std::size_t l = 0; l < configs.size(); ++l) {
        EXPECT_EQ(scalars[l].clip_events(), bank.clip_events(l)) << "lane " << l;
    }
}

TEST(ModulatorBank, ResetLaneMatchesScalarReset) {
    modulator_bank bank;
    bank.add_lane(modulator_params::ideal());
    sd_modulator scalar(modulator_params::ideal());
    double bit = 0.0;
    double input = 0.31;
    for (std::size_t n = 0; n < 100; ++n) {
        bank.step(&input, true, &bit);
        scalar.step(input, true);
    }
    bank.reset_lane(0, 0.123);
    scalar.reset(0.123);
    EXPECT_EQ(scalar.state(), bank.state(0));
    EXPECT_EQ(scalar.clip_events(), bank.clip_events(0));
    for (std::size_t n = 0; n < 100; ++n) {
        bank.step(&input, false, &bit);
        const int scalar_bit = scalar.step(input, false);
        ASSERT_EQ(static_cast<double>(scalar_bit), bit);
        ASSERT_EQ(scalar.state(), bank.state(0));
    }
}

// The central paper property asserted per lane: with |y| <= vref the
// integrator state stays within 2*b*vref and the accumulated error
// |sum(y)/vref - sum(d)| stays within 4 LSB -- eqs. (3)-(5).
TEST(ModulatorBank, BoundedStateAndEpsilonHeldOnEveryLane) {
    constexpr std::size_t n_lanes = 8;
    modulator_bank bank;
    bistna::rng setup(11);
    std::vector<double> amplitude(n_lanes);
    std::vector<double> freq_norm(n_lanes);
    std::vector<double> phase(n_lanes);
    for (std::size_t l = 0; l < n_lanes; ++l) {
        bank.add_lane(modulator_params::ideal());
        bank.reset_lane(l, setup.uniform(-0.5, 0.5) * bank.params(l).vref);
        amplitude[l] = setup.uniform(0.05, 0.69);
        freq_norm[l] = setup.uniform(0.005, 0.45);
        phase[l] = setup.uniform(0.0, bistna::two_pi);
    }
    const double vref = bank.params(0).vref;
    const double state_band = 2.0 * bank.params(0).ci_over_cf * vref;

    std::vector<double> inputs(n_lanes);
    std::vector<double> bits(n_lanes);
    std::vector<double> sum_y(n_lanes, 0.0);
    std::vector<double> sum_d(n_lanes, 0.0);
    const std::size_t length = 9600;
    for (std::size_t n = 0; n < length; ++n) {
        const bool q = (n / 16) % 2 == 0;
        for (std::size_t l = 0; l < n_lanes; ++l) {
            inputs[l] = amplitude[l] *
                        std::sin(bistna::two_pi * freq_norm[l] * static_cast<double>(n) +
                                 phase[l]);
        }
        bank.step(inputs.data(), q, bits.data());
        for (std::size_t l = 0; l < n_lanes; ++l) {
            sum_y[l] += q ? inputs[l] : -inputs[l];
            sum_d[l] += bits[l];
            ASSERT_LE(std::abs(bank.state(l)), state_band + 1e-12)
                << "lane " << l << " n " << n;
        }
    }
    for (std::size_t l = 0; l < n_lanes; ++l) {
        const double eps = sum_y[l] / vref - sum_d[l];
        EXPECT_LE(std::abs(eps), 4.0) << "lane " << l;
        EXPECT_EQ(bank.clip_events(l), 0u) << "lane " << l;
    }
}

// A lane's trajectory must not depend on how many other lanes share the
// bank: embed the same configuration in banks of 1, 4 and 8 lanes.
TEST(ModulatorBank, LaneCountInvariance) {
    const modulator_params probe = modulator_params::cmos035();
    constexpr std::uint64_t probe_seed = 77;
    bistna::rng stimulus(3);
    std::vector<double> record(5000);
    for (auto& x : record) {
        x = stimulus.uniform(-0.6, 0.6);
    }

    auto run_probe_lane = [&](std::size_t total_lanes, std::size_t probe_lane) {
        modulator_bank bank;
        for (std::size_t l = 0; l < total_lanes; ++l) {
            if (l == probe_lane) {
                bank.add_lane(probe, bistna::rng(probe_seed));
            } else {
                bank.add_lane(modulator_params::cmos035(), bistna::rng(1000 + l));
            }
        }
        std::vector<double> inputs(total_lanes);
        std::vector<double> bits(total_lanes);
        std::vector<double> probe_bits;
        probe_bits.reserve(record.size());
        for (std::size_t n = 0; n < record.size(); ++n) {
            for (std::size_t l = 0; l < total_lanes; ++l) {
                inputs[l] = l == probe_lane ? record[n] : -record[n];
            }
            bank.step(inputs.data(), (n / 8) % 2 == 0, bits.data());
            probe_bits.push_back(bits[probe_lane]);
        }
        probe_bits.push_back(bank.state(probe_lane));
        return probe_bits;
    };

    const auto solo = run_probe_lane(1, 0);
    EXPECT_EQ(solo, run_probe_lane(4, 2));
    EXPECT_EQ(solo, run_probe_lane(8, 7));
}

// Permuting the lane order permutes the outputs and nothing else.
TEST(ModulatorBank, LanePermutationInvariance) {
    const auto configs = lane_configs();
    const std::vector<std::size_t> permutation = {4, 2, 0, 3, 1};
    ASSERT_EQ(permutation.size(), configs.size());

    modulator_bank forward;
    modulator_bank permuted;
    for (std::size_t l = 0; l < configs.size(); ++l) {
        forward.add_lane(configs[l], bistna::rng(500 + l));
        permuted.add_lane(configs[permutation[l]], bistna::rng(500 + permutation[l]));
    }

    bistna::rng stimulus(9);
    std::vector<double> inputs(configs.size());
    std::vector<double> permuted_inputs(configs.size());
    std::vector<double> bits_fwd(configs.size());
    std::vector<double> bits_perm(configs.size());
    for (std::size_t n = 0; n < 10000; ++n) {
        for (auto& x : inputs) {
            x = stimulus.uniform(-0.7, 0.7);
        }
        for (std::size_t l = 0; l < configs.size(); ++l) {
            permuted_inputs[l] = inputs[permutation[l]];
        }
        const bool q = n % 3 != 0;
        forward.step(inputs.data(), q, bits_fwd.data());
        permuted.step(permuted_inputs.data(), q, bits_perm.data());
        for (std::size_t l = 0; l < configs.size(); ++l) {
            ASSERT_EQ(bits_fwd[permutation[l]], bits_perm[l]) << "lane " << l << " n " << n;
            ASSERT_EQ(forward.state(permutation[l]), permuted.state(l));
        }
    }
    for (std::size_t l = 0; l < configs.size(); ++l) {
        EXPECT_EQ(forward.clip_events(permutation[l]), permuted.clip_events(l));
    }
}

TEST(ModulatorBank, ClipCountersArePerLane) {
    modulator_bank bank;
    modulator_params clipping = modulator_params::ideal();
    clipping.integrator_swing = 1.0;
    bank.add_lane(clipping);
    bank.add_lane(modulator_params::ideal());
    std::vector<double> inputs = {2.5, 0.1}; // lane 0 far out of range
    std::vector<double> bits(2);
    for (std::size_t n = 0; n < 10000; ++n) {
        bank.step(inputs.data(), true, bits.data());
    }
    EXPECT_GT(bank.clip_events(0), 0u);
    EXPECT_EQ(bank.clip_events(1), 0u);
}

// The fused lane-major and broadcast kernels against the scalar modulator
// stepped sample by sample -- once with a noisy lane in the bank (the
// per-lane branch) and once noiseless only (the branch-free kernel).  The
// broadcast record runs through the pair entry, which steps a Q bank too.
TEST(ModulatorBank, AccumulateMatchesPerSampleStepping) {
    auto noiseless = lane_configs();
    std::erase_if(noiseless, [](const modulator_params& p) { return p.noise_rms > 0.0; });
    for (const auto& configs : {lane_configs(), noiseless}) {
        const std::size_t lanes = configs.size();
        const std::size_t total = 4800;
        bistna::rng stimulus(17);
        std::vector<double> lane_major(total * lanes);
        for (auto& x : lane_major) {
            x = stimulus.uniform(-0.7, 0.7);
        }
        std::vector<double> qsigns[2] = {std::vector<double>(total), std::vector<double>(total)};
        std::vector<double> signs(total);
        for (std::size_t n = 0; n < total; ++n) {
            qsigns[0][n] = (n % 96) < 48 ? 1.0 : -1.0;
            qsigns[1][n] = ((n + 24) % 96) < 48 ? 1.0 : -1.0;
            signs[n] = n >= total / 2 ? -1.0 : 1.0;
        }

        // Lane l consumes column l of the block (lane-major), or column 0
        // for every lane (broadcast).
        for (const bool broadcast : {false, true}) {
            modulator_bank fused[2]; // I, and the broadcast pair's Q
            for (std::size_t c = 0; c < 2; ++c) {
                for (std::size_t l = 0; l < lanes; ++l) {
                    fused[c].add_lane(configs[l], bistna::rng(42 + 100 * c + l));
                }
            }
            std::vector<double> acc[2] = {std::vector<double>(lanes, 0.0),
                                          std::vector<double>(lanes, 0.0)};
            if (broadcast) {
                std::vector<double> record(total);
                for (std::size_t n = 0; n < total; ++n) {
                    record[n] = lane_major[n * lanes];
                }
                modulator_bank::accumulate_pair_shared(fused[0], fused[1], record.data(),
                                                       qsigns[0].data(), qsigns[1].data(),
                                                       signs.data(), total, total, acc[0].data(),
                                                       acc[1].data());
            } else {
                fused[0].accumulate_lane_major(lane_major.data(), qsigns[0].data(), signs.data(),
                                               total, acc[0].data());
            }
            for (std::size_t c = 0; c < (broadcast ? 2u : 1u); ++c) {
                for (std::size_t l = 0; l < lanes; ++l) {
                    sd_modulator scalar(configs[l], bistna::rng(42 + 100 * c + l));
                    double expected = 0.0;
                    for (std::size_t n = 0; n < total; ++n) {
                        const double x = lane_major[n * lanes + (broadcast ? 0 : l)];
                        expected += signs[n] * scalar.step(x, qsigns[c][n] > 0.0);
                    }
                    EXPECT_EQ(expected, acc[c][l])
                        << "lane " << l << " broadcast " << broadcast << " channel " << c;
                    EXPECT_EQ(scalar.state(), fused[c].state(l)) << "lane " << l;
                    EXPECT_EQ(scalar.clip_events(), fused[c].clip_events(l)) << "lane " << l;
                }
            }
        }
    }
}

TEST(ModulatorBank, GroundedAccumulateMatchesScalarCalibrationLoop) {
    const auto configs = lane_configs();
    modulator_bank bank;
    std::vector<sd_modulator> scalars;
    for (std::size_t l = 0; l < configs.size(); ++l) {
        bank.add_lane(configs[l], bistna::rng(7 + l));
        scalars.emplace_back(configs[l], bistna::rng(7 + l));
    }

    const std::size_t total = 96 * 64;
    std::vector<double> acc(configs.size(), 0.0);
    bank.accumulate_grounded(total, acc.data());
    for (std::size_t l = 0; l < configs.size(); ++l) {
        long long scalar_acc = 0;
        for (std::size_t n = 0; n < total; ++n) {
            scalar_acc += scalars[l].step(0.0, true);
        }
        EXPECT_EQ(static_cast<double>(scalar_acc), acc[l]) << "lane " << l;
        EXPECT_EQ(scalars[l].state(), bank.state(l)) << "lane " << l;
    }
}

// The bank and the scalar modulator share one params check, so both
// reject exactly the same configurations.
TEST(ModulatorBank, RejectsNonPositiveConfig) {
    modulator_bank bank;
    for (const auto& params : invalid_configs()) {
        EXPECT_THROW((void)bank.add_lane(params), bistna::precondition_error);
        EXPECT_THROW(sd_modulator m(params), bistna::precondition_error);
    }
    EXPECT_EQ(bank.lanes(), 0u);
    EXPECT_THROW((void)bank.state(5), bistna::precondition_error);
}

/// Lane l of a width-sweep bank: noiseless or noisy, cycling through the
/// documented non-idealities, with a clipping lane among every three.
modulator_params sweep_config(std::size_t l, bool noisy) {
    modulator_params params = noisy ? modulator_params::cmos035() : modulator_params::ideal();
    params.input_offset += 1.0e-4 * static_cast<double>(l);
    params.noise_rms *= 1.0 + 0.1 * static_cast<double>(l);
    if (l % 3 == 1) {
        params.integrator_swing = 0.2;
    }
    if (l % 3 == 2) {
        params.dc_gain_db = 60.0;
        params.comparator_hysteresis = 1.0e-3;
    }
    return params;
}

// Every entry point against the scalar modulator stepped sample by sample,
// at lane counts that fill whole vectors (2-, 4- and 8-wide) and register
// blocks (8 and 16 lanes), that add a partial block to whole ones (17, 24,
// 33) and that leave every tail, including each calibration bank width the
// workloads run (1, 2, 6, 9, 15, 16), for noiseless, all-noisy and mixed
// banks.  The pair entries step an I and a Q bank in one pass; both
// channels are checked against their own scalar modulators, and their sign
// tables hold P = 96, 48 or 1 entries, repeated over each call from its
// first sample (the one-bank entries read one entry per sample).  Records
// of 1, T-1, T and T+1 samples (T = the noise tile length) cover a
// partial, a whole and a spilled tile block, so a block starts mid-period;
// each is followed by a 3-sample call.  A
// ziggurat draw consumes a variable number of RNG words, so every block
// must draw exactly its own samples' noise for the next call to continue
// every lane identically.  The lanes' seeds are all distinct, all one, or
// cycle over three values (the Q bank's offset from the I bank's);
// sweep_config gives every lane its own noise_rms, so lanes on one stream
// differ in rms, and the mixed banks put noiseless lanes between them.
TEST(ModulatorBank, EveryEntryPointMatchesScalarAtEveryWidth) {
    enum class entry { lane_major, grounded, step, pair_lane_major, pair_shared };
    enum class noise { none, all, mixed };
    enum class streams { distinct, one, three };
    constexpr std::size_t follow_up = 3;
    constexpr std::uint64_t q_seed_offset = 400;
    for (const std::size_t lanes :
         {1u, 2u, 3u, 4u, 6u, 7u, 8u, 9u, 15u, 16u, 17u, 24u, 33u}) {
        for (const noise kind : {noise::none, noise::all, noise::mixed}) {
            for (const streams layout : {streams::distinct, streams::one, streams::three}) {
                std::vector<modulator_params> configs;
                std::vector<std::uint64_t> seeds;
                std::set<std::uint64_t> noisy_seeds;
                for (std::size_t l = 0; l < lanes; ++l) {
                    const bool noisy = kind == noise::all || (kind == noise::mixed && l % 2 == 0);
                    configs.push_back(sweep_config(l, noisy));
                    seeds.push_back(layout == streams::distinct ? 300 + l
                                    : layout == streams::one    ? 300
                                                                : 300 + l % 3);
                    if (noisy) {
                        noisy_seeds.insert(seeds.back());
                    }
                }
                modulator_bank probe;
                for (const auto& params : configs) {
                    probe.add_lane(params);
                }
                const std::size_t tile = probe.noise_tile_samples();
                ASSERT_GT(tile, 1u);
                for (const entry how : {entry::lane_major, entry::grounded, entry::step,
                                        entry::pair_lane_major, entry::pair_shared}) {
                    const bool pair = how == entry::pair_lane_major || how == entry::pair_shared;
                    // 0: one sign-table entry per sample.
                    const std::vector<std::size_t> periods =
                        pair ? std::vector<std::size_t>{96, 48, 1} : std::vector<std::size_t>{0};
                    for (const std::size_t period : periods) {
                        for (const std::size_t length :
                             {std::size_t{1}, tile - 1, tile, tile + 1}) {
                            const std::size_t total = length + follow_up;
                            const std::size_t entries = std::max(total, period);
                            bistna::rng stimulus(1000 * lanes + length + period);
                            std::vector<double> xs(total * lanes);
                            std::vector<double> record(total);
                            std::vector<double> qsigns[2] = {std::vector<double>(entries),
                                                             std::vector<double>(entries)};
                            std::vector<double> signs(entries);
                            for (auto& x : xs) {
                                x = stimulus.uniform(-0.7, 0.7);
                            }
                            for (std::size_t n = 0; n < total; ++n) {
                                record[n] = stimulus.uniform(-0.7, 0.7);
                            }
                            for (std::size_t n = 0; n < entries; ++n) {
                                qsigns[0][n] = stimulus.bernoulli(0.5) ? 1.0 : -1.0;
                                qsigns[1][n] = stimulus.bernoulli(0.5) ? 1.0 : -1.0;
                                signs[n] = stimulus.bernoulli(0.5) ? 1.0 : -1.0;
                            }

                            // Channel 0 is the bank every entry runs; channel 1
                            // is the pair entries' Q bank.
                            struct channel {
                                modulator_bank bank;
                                std::vector<sd_modulator> scalars;
                                std::vector<double> acc;
                                std::vector<double> expected;
                            };
                            std::vector<channel> channels(pair ? 2 : 1);
                            for (std::size_t c = 0; c < channels.size(); ++c) {
                                for (std::size_t l = 0; l < lanes; ++l) {
                                    const bistna::rng noise_rng(seeds[l] + c * q_seed_offset);
                                    channels[c].bank.add_lane(configs[l], noise_rng);
                                    channels[c].scalars.emplace_back(configs[l], noise_rng);
                                }
                                channels[c].acc.assign(lanes, 0.0);
                                channels[c].expected.assign(lanes, 0.0);
                                ASSERT_EQ(channels[c].bank.noise_streams(), noisy_seeds.size());
                            }
                            modulator_bank& bank = channels[0].bank;
                            std::vector<double>& acc = channels[0].acc;
                            std::vector<double> bits(lanes);
                            std::size_t first = 0;
                            for (const std::size_t count : {length, follow_up}) {
                                // The sign-table entry of sample n of this call.
                                const auto at = [&](std::size_t n) {
                                    return period == 0 ? n : (n - first) % period;
                                };
                                switch (how) {
                                case entry::lane_major:
                                    bank.accumulate_lane_major(
                                        xs.data() + first * lanes, qsigns[0].data() + first,
                                        signs.data() + first, count, acc.data());
                                    break;
                                case entry::grounded:
                                    bank.accumulate_grounded(count, acc.data());
                                    break;
                                case entry::step:
                                    for (std::size_t n = first; n < first + count; ++n) {
                                        bank.step(xs.data() + n * lanes, qsigns[0][n] > 0.0,
                                                  bits.data());
                                        for (std::size_t l = 0; l < lanes; ++l) {
                                            acc[l] += signs[n] * bits[l];
                                        }
                                    }
                                    break;
                                case entry::pair_lane_major:
                                    modulator_bank::accumulate_pair_lane_major(
                                        bank, channels[1].bank, xs.data() + first * lanes,
                                        qsigns[0].data(), qsigns[1].data(), signs.data(), period,
                                        count, acc.data(), channels[1].acc.data());
                                    break;
                                case entry::pair_shared:
                                    modulator_bank::accumulate_pair_shared(
                                        bank, channels[1].bank, record.data() + first,
                                        qsigns[0].data(), qsigns[1].data(), signs.data(), period,
                                        count, acc.data(), channels[1].acc.data());
                                    break;
                                }
                                for (std::size_t c = 0; c < channels.size(); ++c) {
                                    channel& ch = channels[c];
                                    for (std::size_t l = 0; l < lanes; ++l) {
                                        for (std::size_t n = first; n < first + count; ++n) {
                                            if (how == entry::grounded) {
                                                ch.expected[l] += ch.scalars[l].step(0.0, true);
                                                continue;
                                            }
                                            const double x = how == entry::pair_shared
                                                                 ? record[n]
                                                                 : xs[n * lanes + l];
                                            const bool q = qsigns[c][at(n)] > 0.0;
                                            ch.expected[l] +=
                                                signs[at(n)] * ch.scalars[l].step(x, q);
                                        }
                                        ASSERT_EQ(ch.expected[l], ch.acc[l])
                                            << "lanes " << lanes << " noise "
                                            << static_cast<int>(kind) << " streams "
                                            << static_cast<int>(layout) << " entry "
                                            << static_cast<int>(how) << " period " << period
                                            << " length " << length << " call at " << first
                                            << " channel " << c << " lane " << l;
                                        ASSERT_EQ(ch.scalars[l].state(), ch.bank.state(l))
                                            << "channel " << c << " lane " << l;
                                        ASSERT_EQ(ch.scalars[l].clip_events(),
                                                  ch.bank.clip_events(l))
                                            << "channel " << c << " lane " << l;
                                    }
                                }
                                first += count;
                            }
                        }
                    }
                }
            }
        }
    }
}

// The pair entries step both banks with the first bank's lane constants, so
// they refuse banks whose lane counts differ, whose params differ in one
// lane, or that are one bank twice, and sign tables of no entries -- before
// either bank moves.
TEST(ModulatorBank, PairRejectsMismatchedBanks) {
    const auto configs = lane_configs();
    const std::size_t lanes = configs.size();
    modulator_bank in_phase;
    modulator_bank quadrature;
    modulator_bank shorter;
    modulator_bank other_params;
    for (std::size_t l = 0; l < lanes; ++l) {
        in_phase.add_lane(configs[l], bistna::rng(10 + l));
        quadrature.add_lane(configs[l], bistna::rng(20 + l));
        if (l + 1 < lanes) {
            shorter.add_lane(configs[l], bistna::rng(30 + l));
        }
        modulator_params params = configs[l];
        if (l == 3) {
            params.comparator_offset += 1.0e-4;
        }
        other_params.add_lane(params, bistna::rng(40 + l));
    }
    constexpr std::size_t count = 4;
    const std::vector<double> xs(count * lanes, 0.1);
    const std::vector<double> ones(count, 1.0);
    std::vector<double> acc_i(lanes, 0.0);
    std::vector<double> acc_q(lanes, 0.0);
    for (modulator_bank* bad : {&shorter, &other_params, &in_phase}) {
        EXPECT_THROW(modulator_bank::accumulate_pair_lane_major(
                         in_phase, *bad, xs.data(), ones.data(), ones.data(), ones.data(),
                         count, count, acc_i.data(), acc_q.data()),
                     bistna::precondition_error);
        EXPECT_THROW(modulator_bank::accumulate_pair_shared(in_phase, *bad, xs.data(),
                                                            ones.data(), ones.data(),
                                                            ones.data(), count, count,
                                                            acc_i.data(), acc_q.data()),
                     bistna::precondition_error);
    }
    // Sign tables of no entries.
    EXPECT_THROW(modulator_bank::accumulate_pair_lane_major(
                     in_phase, quadrature, xs.data(), ones.data(), ones.data(), ones.data(), 0,
                     count, acc_i.data(), acc_q.data()),
                 bistna::precondition_error);
    for (std::size_t l = 0; l < lanes; ++l) {
        EXPECT_EQ(acc_i[l], 0.0);
        EXPECT_EQ(in_phase.state(l), 0.0);
    }
    modulator_bank::accumulate_pair_lane_major(in_phase, quadrature, xs.data(), ones.data(),
                                               ones.data(), ones.data(), count, count,
                                               acc_i.data(), acc_q.data());
    EXPECT_NE(in_phase.state(0), 0.0);
}

// Lanes may join a bank that has already run.  The noise tile's layout
// follows the lane count, so the tile cells a new noiseless lane reads held
// another lane's noise a call earlier; every lane must still match.  A
// stream is keyed on its current position: a lane whose RNG sits where a
// running lane's stream now is shares that stream from then on, and a lane
// at that stream's initial seed does not.
TEST(ModulatorBank, LaneAddedAfterARunStaysExact) {
    modulator_bank bank;
    std::vector<sd_modulator> scalars;
    const auto add = [&](const modulator_params& params, const bistna::rng& noise_rng) {
        bank.add_lane(params, noise_rng);
        scalars.emplace_back(params, noise_rng);
    };
    constexpr std::size_t count = 700;
    add(sweep_config(0, true), bistna::rng(1));
    add(sweep_config(1, true), bistna::rng(2));
    std::vector<double> acc(2, 0.0);
    bank.accumulate_grounded(count, acc.data());
    bistna::rng lane0_now(1); // lane 0's stream after `count` draws
    for (std::size_t n = 0; n < count; ++n) {
        scalars[0].step(0.0, true);
        scalars[1].step(0.0, true);
        (void)bistna::standard_normal(lane0_now);
    }
    EXPECT_EQ(bank.noise_streams(), 2u);

    add(sweep_config(2, false), bistna::rng(3));
    add(sweep_config(3, true), lane0_now); // lane 0's stream, at another noise_rms
    EXPECT_EQ(bank.noise_streams(), 2u);
    add(sweep_config(4, true), bistna::rng(1)); // lane 0's seed, not its position
    EXPECT_EQ(bank.noise_streams(), 3u);
    for (const std::size_t length : {count, std::size_t{5}}) {
        acc.assign(scalars.size(), 0.0);
        bank.accumulate_grounded(length, acc.data());
        for (std::size_t l = 0; l < scalars.size(); ++l) {
            double expected = 0.0;
            for (std::size_t n = 0; n < length; ++n) {
                expected += scalars[l].step(0.0, true);
            }
            EXPECT_EQ(expected, acc[l]) << "lane " << l << " length " << length;
            EXPECT_EQ(scalars[l].state(), bank.state(l)) << "lane " << l;
            EXPECT_EQ(scalars[l].clip_events(), bank.clip_events(l)) << "lane " << l;
        }
    }
}

} // namespace
