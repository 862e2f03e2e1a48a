// The banked DUT pass and the step_block fast paths: both must be
// IEEE-754 bit-identical to the per-sample scalar reference at every order
// and lane count -- the render pipeline's correctness contract.
#include "dut/state_space.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/arena.hpp"
#include "common/math_util.hpp"
#include "common/rng.hpp"
#include "linalg/matrix.hpp"

namespace {

using namespace bistna;
using dut::state_space;
using dut::state_space_bank;

/// A stable lowpass realization of the requested order, built directly in
/// (well-conditioned) diagonal form: real poles at -w_i with distinct w_i,
/// slightly perturbed per seed so lanes differ.  Companion form would be
/// numerically hopeless past order 3 at these frequencies.
state_space stable_lowpass(std::size_t order, std::uint64_t seed) {
    rng draw(seed);
    linalg::matrix a(order, order);
    linalg::matrix b(order, 1);
    linalg::matrix c(1, order);
    for (std::size_t i = 0; i < order; ++i) {
        const double w = two_pi * (500.0 + 400.0 * static_cast<double>(i)) *
                         (1.0 + 0.05 * draw.gaussian());
        a(i, i) = -w;
        b(i, 0) = 1.0;
        c(0, i) = (i % 2 == 0 ? 1.0 : -1.0) * w / static_cast<double>(order);
    }
    return state_space(std::move(a), std::move(b), std::move(c), 0.0);
}

std::vector<double> random_record(std::size_t count, std::uint64_t seed) {
    rng draw(seed);
    std::vector<double> record(count);
    for (double& v : record) {
        v = draw.gaussian();
    }
    return record;
}

/// step_block output of a fresh copy of the (order, seed) design, computed
/// with the per-sample step() loop (the pre-fast-path arithmetic).
std::vector<double> per_sample_reference(std::size_t order, std::uint64_t seed,
                                         double fs, const std::vector<double>& input) {
    auto ss = stable_lowpass(order, seed);
    ss.prepare(fs);
    std::vector<double> out(input.size());
    for (std::size_t n = 0; n < input.size(); ++n) {
        out[n] = ss.step(input[n]);
    }
    return out;
}

// Satellite regression: the order 1-4 register fast paths (and the generic
// path above them) pin bit-identity to the per-sample step() loop.
TEST(StateSpaceBank, StepBlockBitIdenticalToPerSampleStepOrders1To6) {
    const double fs = 96.0 * 1000.0;
    const auto input = random_record(4096, 77);
    for (std::size_t order = 1; order <= 6; ++order) {
        const auto expected = per_sample_reference(order, 900 + order, fs, input);

        auto ss = stable_lowpass(order, 900 + order);
        ss.prepare(fs);
        std::vector<double> out(input.size());
        ss.step_block(input, out);
        for (std::size_t n = 0; n < input.size(); ++n) {
            ASSERT_EQ(out[n], expected[n]) << "order " << order << " sample " << n;
        }
    }
}

TEST(StateSpaceBank, CompatibleRequiresPreparedEqualLowOrderLanes) {
    auto a = stable_lowpass(2, 1);
    auto b = stable_lowpass(2, 2);
    auto c = stable_lowpass(3, 3);
    auto high = stable_lowpass(5, 4);

    EXPECT_FALSE(state_space_bank::compatible({}));

    const state_space* unprepared[] = {&a, &b};
    EXPECT_FALSE(state_space_bank::compatible(unprepared));

    a.prepare(96e3);
    b.prepare(96e3);
    c.prepare(96e3);
    high.prepare(96e3);

    const state_space* same_order[] = {&a, &b};
    EXPECT_TRUE(state_space_bank::compatible(same_order));

    const state_space* mixed_order[] = {&a, &c};
    EXPECT_FALSE(state_space_bank::compatible(mixed_order));

    const state_space* too_high[] = {&high};
    EXPECT_FALSE(state_space_bank::compatible(too_high));
}

TEST(StateSpaceBank, LaneMajorPassBitIdenticalToScalarLanes) {
    const double fs = 96.0 * 2500.0;
    const std::size_t samples = 2000;
    for (std::size_t order = 1; order <= 4; ++order) {
        for (std::size_t lanes : {1u, 3u, 8u, 9u, 17u}) {
            // Scalar reference lanes and bank lanes from the same designs.
            std::vector<std::vector<double>> inputs;
            std::vector<std::vector<double>> expected(lanes);
            std::vector<state_space> bank_lanes;
            bank_lanes.reserve(lanes);
            for (std::size_t l = 0; l < lanes; ++l) {
                const std::uint64_t seed = 100 * order + l;
                inputs.push_back(random_record(samples, 500 + l));
                expected[l] = per_sample_reference(order, seed, fs, inputs[l]);
                bank_lanes.push_back(stable_lowpass(order, seed));
                bank_lanes.back().prepare(fs);
            }

            std::vector<state_space*> lane_ptrs;
            std::vector<const double*> input_ptrs;
            for (std::size_t l = 0; l < lanes; ++l) {
                lane_ptrs.push_back(&bank_lanes[l]);
                input_ptrs.push_back(inputs[l].data());
            }
            ASSERT_TRUE(state_space_bank::compatible({lane_ptrs.data(), lanes}));

            arena scratch;
            state_space_bank bank({lane_ptrs.data(), lanes}, scratch);
            // Two block calls over one bank state (the settle/tail split the
            // render pipeline performs).
            const std::size_t split = samples / 3;
            std::vector<double> lane_major(samples * lanes);
            bank.step_block_lanes(input_ptrs.data(), split, lane_major.data());
            std::vector<const double*> tail_ptrs;
            for (std::size_t l = 0; l < lanes; ++l) {
                tail_ptrs.push_back(inputs[l].data() + split);
            }
            bank.step_block_lanes(tail_ptrs.data(), samples - split,
                                  lane_major.data() + split * lanes);

            for (std::size_t l = 0; l < lanes; ++l) {
                for (std::size_t n = 0; n < samples; ++n) {
                    ASSERT_EQ(lane_major[n * lanes + l], expected[l][n])
                        << "order " << order << " lanes " << lanes << " lane " << l
                        << " sample " << n;
                }
            }

            // State write-back: continuing each lane with the scalar
            // step_block must match a pure-scalar run of the same length.
            const auto more = random_record(256, 9000 + order);
            for (std::size_t l = 0; l < lanes; ++l) {
                auto reference = stable_lowpass(order, 100 * order + l);
                reference.prepare(fs);
                std::vector<double> sink(samples);
                reference.step_block(inputs[l], sink);
                std::vector<double> expect_more(more.size());
                reference.step_block(more, expect_more);

                std::vector<double> got_more(more.size());
                bank_lanes[l].step_block(more, got_more);
                for (std::size_t n = 0; n < more.size(); ++n) {
                    ASSERT_EQ(got_more[n], expect_more[n])
                        << "post-bank state diverged, lane " << l << " sample " << n;
                }
            }
        }
    }
}

TEST(StateSpaceBank, SharedInputPassMatchesLaneMajorPass) {
    const double fs = 96.0 * 1000.0;
    const std::size_t samples = 1500;
    const auto input = random_record(samples, 42);
    for (std::size_t lanes : {5u, 9u, 17u}) {
        std::vector<state_space> a_lanes, b_lanes;
        std::vector<state_space*> a_ptrs, b_ptrs;
        std::vector<const double*> input_ptrs(lanes, input.data());
        for (std::size_t l = 0; l < lanes; ++l) {
            a_lanes.push_back(stable_lowpass(3, 300 + l));
            b_lanes.push_back(stable_lowpass(3, 300 + l));
        }
        for (std::size_t l = 0; l < lanes; ++l) {
            a_lanes[l].prepare(fs);
            b_lanes[l].prepare(fs);
            a_ptrs.push_back(&a_lanes[l]);
            b_ptrs.push_back(&b_lanes[l]);
        }

        arena scratch;
        state_space_bank broadcast({a_ptrs.data(), lanes}, scratch);
        state_space_bank pointers({b_ptrs.data(), lanes}, scratch);
        std::vector<double> out_broadcast(samples * lanes), out_pointers(samples * lanes);
        broadcast.step_block_shared(input.data(), samples, out_broadcast.data());
        pointers.step_block_lanes(input_ptrs.data(), samples, out_pointers.data());
        for (std::size_t i = 0; i < out_broadcast.size(); ++i) {
            ASSERT_EQ(out_broadcast[i], out_pointers[i]) << "lanes " << lanes << " element " << i;
        }
    }
}

} // namespace
