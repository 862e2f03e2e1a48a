// Tests for the ziggurat standard-normal draw behind the modulator noise.
//
// StandardNormal: the statistics of the draw, with fixed seeds and every
// bound at least 5 standard errors wide, so the suite cannot flake.
// StandardNormalStream: what makes the draw host-independent -- the layer
// table, the in-tree exp and log against the host libm, and a golden digest
// of the stream itself.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "common/normal.hpp"
#include "common/rng.hpp"

namespace {

using bistna::rng;
using bistna::standard_normal;

constexpr double r = bistna::ziggurat_tail_start;

/// Distance in representable doubles between a and b.
std::int64_t ulp_distance(double a, double b) {
    auto ordered = [](double d) {
        const auto bits = std::bit_cast<std::int64_t>(d);
        return bits < 0 ? std::numeric_limits<std::int64_t>::min() - bits : bits;
    };
    const std::int64_t ia = ordered(a);
    const std::int64_t ib = ordered(b);
    return ia > ib ? ia - ib : ib - ia;
}

TEST(StandardNormal, MomentsMatchStandardNormal) {
    constexpr std::size_t n = 10'000'000;
    rng generator(20260417);
    double s1 = 0.0;
    double s2 = 0.0;
    double s3 = 0.0;
    double s4 = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double z = standard_normal(generator);
        const double z2 = z * z;
        s1 += z;
        s2 += z2;
        s3 += z2 * z;
        s4 += z2 * z2;
    }
    const double m1 = s1 / n;
    const double m2 = s2 / n;
    const double m3 = s3 / n;
    const double m4 = s4 / n;
    const double var = m2 - m1 * m1;
    const double skew = (m3 - 3.0 * m1 * m2 + 2.0 * m1 * m1 * m1) / std::pow(var, 1.5);
    const double excess_kurtosis =
        (m4 - 4.0 * m1 * m3 + 6.0 * m1 * m1 * m2 - 3.0 * m1 * m1 * m1 * m1) / (var * var) - 3.0;
    // Standard errors for N(0, 1): sqrt(1/n), sqrt(2/n), sqrt(6/n), sqrt(24/n).
    const double se = 1.0 / std::sqrt(static_cast<double>(n));
    EXPECT_NEAR(m1, 0.0, 5.0 * se);
    EXPECT_NEAR(var, 1.0, 5.0 * std::sqrt(2.0) * se);
    EXPECT_NEAR(skew, 0.0, 5.0 * std::sqrt(6.0) * se);
    EXPECT_NEAR(excess_kurtosis, 0.0, 5.0 * std::sqrt(24.0) * se);
}

TEST(StandardNormal, KolmogorovSmirnovDistanceToPhi) {
    // The empirical CDF F_n is tallied on a grid of 2^20 bins of width 2^-16
    // over [-8, 8).  Inside a bin both F_n and Phi are monotone, so the exact
    // D = sup |F_n - Phi| exceeds the largest gap at the bin edges by at most
    // the largest Phi mass of one bin (about 6e-6, against a bound of 7e-4):
    // the test bounds D from above without sorting 1e7 doubles.
    constexpr std::size_t n = 10'000'000;
    constexpr std::size_t bins = std::size_t{1} << 20;
    constexpr double lo = -8.0;
    constexpr double width = 0x1.0p-16;
    rng generator(1789);
    std::vector<std::uint32_t> count(bins + 2); // [0]: below lo, [bins + 1]: at or above 8
    for (std::size_t i = 0; i < n; ++i) {
        const double z = standard_normal(generator);
        const double position = (z - lo) / width;
        const std::size_t bin = position < 0.0 ? 0
                                : position >= static_cast<double>(bins)
                                    ? bins + 1
                                    : static_cast<std::size_t>(position) + 1;
        ++count[bin];
    }
    auto phi = [](double x) { return 0.5 * std::erfc(-x / std::sqrt(2.0)); };
    double gap = 0.0;
    double widest_bin = std::max(phi(lo), 1.0 - phi(lo + bins * width));
    std::size_t below = 0;
    double phi_previous = 0.0;
    for (std::size_t k = 0; k <= bins; ++k) {
        below += count[k]; // draws below edge k
        const double edge = lo + static_cast<double>(k) * width;
        const double phi_edge = phi(edge);
        gap = std::max(gap, std::abs(static_cast<double>(below) / n - phi_edge));
        if (k > 0) {
            widest_bin = std::max(widest_bin, phi_edge - phi_previous);
        }
        phi_previous = phi_edge;
    }
    const double d = gap + widest_bin;
    // sqrt(n) D < 2.2 holds with probability 1 - 1e-4 for a true N(0, 1).
    EXPECT_LT(std::sqrt(static_cast<double>(n)) * d, 2.2) << "D <= " << d;
}

/// Count of |z| > threshold over n draws against n P(|Z| > threshold), with
/// a 5-standard-error window.
void expect_tail_mass(std::uint64_t seed, std::size_t n, double threshold) {
    rng generator(seed);
    std::size_t beyond = 0;
    for (std::size_t i = 0; i < n; ++i) {
        beyond += std::abs(standard_normal(generator)) > threshold;
    }
    const double p = std::erfc(threshold / std::sqrt(2.0)); // P(|Z| > threshold)
    const double expected = static_cast<double>(n) * p;
    const double se = std::sqrt(expected * (1.0 - p));
    EXPECT_NEAR(static_cast<double>(beyond), expected, 5.0 * se)
        << "beyond " << threshold << " sigma in " << n << " draws";
}

TEST(StandardNormal, TailMassBeyondBaseStrip) {
    // 5.76e-4 of the mass: about 5761 +/- 76 in 1e7 draws.
    expect_tail_mass(4242, 10'000'000, r);
}

TEST(StandardNormal, TailMassBeyondFiveSigma) {
    // 5.73e-7 of the mass: about 57.3 +/- 7.6 in 1e8 draws.
    expect_tail_mass(5005, 100'000'000, 5.0);
}

TEST(StandardNormal, LagAutocorrelationVanishes) {
    constexpr std::size_t n = 10'000'000;
    constexpr std::size_t max_lag = 8;
    rng generator(77);
    std::array<double, max_lag> recent{}; // recent[j % max_lag] = z[j]
    std::array<double, max_lag + 1> lagged{};
    double energy = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double z = standard_normal(generator);
        energy += z * z;
        for (std::size_t k = 1; k <= max_lag; ++k) {
            lagged[k] += z * recent[(i - k) % max_lag]; // 0 until i >= k
        }
        recent[i % max_lag] = z;
    }
    const double se = 1.0 / std::sqrt(static_cast<double>(n));
    for (std::size_t k = 1; k <= max_lag; ++k) {
        EXPECT_NEAR(lagged[k] / energy, 0.0, 5.0 * se) << "lag " << k;
    }
}

/// Sample correlation of the draws from two generators.
double cross_correlation(rng a, rng b, std::size_t n) {
    double ab = 0.0;
    double aa = 0.0;
    double bb = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double za = standard_normal(a);
        const double zb = standard_normal(b);
        ab += za * zb;
        aa += za * za;
        bb += zb * zb;
    }
    return ab / std::sqrt(aa * bb);
}

TEST(StandardNormal, SiblingStreamsAreUncorrelated) {
    constexpr std::size_t n = 4'000'000;
    const double bound = 5.0 / std::sqrt(static_cast<double>(n));
    EXPECT_NEAR(cross_correlation(rng(bistna::derive_stream_seed(99, 0)),
                                  rng(bistna::derive_stream_seed(99, 1)), n),
                0.0, bound);
    // The modulators draw from spawned generators.
    rng parent(99);
    const rng first = parent.spawn();
    const rng second = parent.spawn();
    EXPECT_NEAR(cross_correlation(first, second, n), 0.0, bound);
}

TEST(StandardNormalStream, EdgesMatchZignorRecurrence) {
    using ld = long double;
    const ld tail_start = bistna::ziggurat_tail_start;
    const ld area = bistna::ziggurat_layer_area;
    auto f = [](ld x) { return std::exp(-x * x / 2); };
    std::array<ld, 129> exact{};
    exact[0] = area / f(tail_start);
    exact[1] = tail_start;
    for (std::size_t i = 2; i < 128; ++i) {
        exact[i] = std::sqrt(-2 * std::log(area / exact[i - 1] + f(exact[i - 1])));
    }
    exact[128] = 0;

    const auto& edges = bistna::ziggurat_edges();
    EXPECT_EQ(edges[1], bistna::ziggurat_tail_start);
    EXPECT_EQ(edges[128], 0.0);
    for (std::size_t i = 0; i < edges.size(); ++i) {
        EXPECT_LE(ulp_distance(edges[i], static_cast<double>(exact[i])), 1) << "edge " << i;
    }
}

TEST(StandardNormalStream, PortableExpMatchesLibmOverTheDrawsArguments) {
    // Doornik's wedge test passes -(x_i^2 - x^2) / 2 and -(x_{i+1}^2 - x^2) / 2,
    // about [-0.74, 0.74]; sweep [-r^2 / 2, 0.75] to cover both forms.
    const double lo = -r * r / 2.0;
    const double hi = 0.75;
    constexpr std::size_t points = 1 << 21;
    std::int64_t worst = 0;
    for (std::size_t i = 0; i <= points; ++i) {
        const double x = lo + (hi - lo) * static_cast<double>(i) / points;
        worst = std::max(worst, ulp_distance(bistna::portable_exp(x), std::exp(x)));
    }
    rng generator(3);
    for (int i = 0; i < 1'000'000; ++i) {
        const double x = generator.uniform(lo, hi);
        worst = std::max(worst, ulp_distance(bistna::portable_exp(x), std::exp(x)));
    }
    for (const double x : {0.0, -0.0, 1e-300, -1e-300, 0x1.0p-30, -0x1.0p-30}) {
        worst = std::max(worst, ulp_distance(bistna::portable_exp(x), std::exp(x)));
    }
    EXPECT_LE(worst, 2);
}

TEST(StandardNormalStream, PortableLogMatchesLibmOverTheDrawsArguments) {
    // The tail test passes (m + 1) 2^-53 for 53-bit m: every such value is in
    // [2^-53, 1].  Cover the smallest, those nearest 1, every power of two
    // and a random spread.
    std::int64_t worst = 0;
    auto check = [&](double u) {
        worst = std::max(worst, ulp_distance(bistna::portable_log(u), std::log(u)));
    };
    for (std::uint64_t m = 1; m <= (1u << 18); ++m) {
        check(static_cast<double>(m) * 0x1.0p-53);
        check(static_cast<double>((std::uint64_t{1} << 53) - m + 1) * 0x1.0p-53);
    }
    for (int k = 0; k <= 53; ++k) {
        check(std::ldexp(1.0, -k));
    }
    rng generator(5);
    for (int i = 0; i < 2'000'000; ++i) {
        check(static_cast<double>((generator.next_u64() >> 11) + 1) * 0x1.0p-53);
    }
    EXPECT_LE(worst, 2);
}

TEST(StandardNormalStream, GoldenDigestOfTheFirstMillionDraws) {
    // FNV-1a over the bit patterns of the first 2^20 draws from one seed,
    // and the generator's next word after them, which pins how many words
    // the draws consumed.  Both are pure IEEE arithmetic on the stream, so
    // they hold on every host.
    rng generator(0x5EED);
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    std::size_t tail_draws = 0;
    for (std::size_t i = 0; i < (std::size_t{1} << 20); ++i) {
        const double z = standard_normal(generator);
        tail_draws += std::abs(z) > r;
        std::uint64_t bits = std::bit_cast<std::uint64_t>(z);
        for (int byte = 0; byte < 8; ++byte) {
            digest = (digest ^ (bits & 0xff)) * 0x100000001b3ULL;
            bits >>= 8;
        }
    }
    EXPECT_GT(tail_draws, 0u) << "the window must exercise the tail";
    EXPECT_EQ(digest, 0xb86c3a3eb1e6c745ULL);
    EXPECT_EQ(generator.next_u64(), 0xff05d317bc2e888dULL);
}

} // namespace
