#include "common/normal.hpp"

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace bistna {

namespace {

constexpr double r = ziggurat_tail_start;

/// ZIGNOR layer edges: the doubles nearest the exact recurrence (normal.hpp)
/// from the double values of r and v.  StandardNormalStream's
/// EdgesMatchZignorRecurrence test recomputes them in long double.
constexpr std::array<double, 129> edge = {
    0x1.db4668fe7e4a2p+1, 0x1.b8a7c476d2be8p+1, 0x1.9c8e0c7c8098fp+1,
    0x1.8aa73e440ffbbp+1, 0x1.7d45eb36eb842p+1, 0x1.7279dd4ac3f9dp+1,
    0x1.695c2be68edc9p+1, 0x1.616dff7c8f54ap+1, 0x1.5a61edf7e8f32p+1,
    0x1.54052012a04a4p+1, 0x1.4e3456b0e3a1bp+1, 0x1.48d61806d6010p+1,
    0x1.43d75b60bca1dp+1, 0x1.3f29848d3b416p+1, 0x1.3ac11b8e206d6p+1,
    0x1.3694f3a3740d9p+1, 0x1.329d9725e32f7p+1, 0x1.2ed4df8099571p+1,
    0x1.2b35aa5ebee3ep+1, 0x1.27bba2b5dbc92p+1, 0x1.246317a6b53c0p+1,
    0x1.2128dd36bdf08p+1, 0x1.1e0a342cf08f5p+1, 0x1.1b04b731f6bcbp+1,
    0x1.18164be0c1c38p+1, 0x1.153d16d45743cp+1, 0x1.12777201834f2p+1,
    0x1.0fc3e4d95f277p+1, 0x1.0d211dd28b00dp+1, 0x1.0a8ded0ec3719p+1,
    0x1.08093fe3e40e0p+1, 0x1.05921d1c4d768p+1, 0x1.0327a1cc4cf5cp+1,
    0x1.00c8fea1720d2p+1, 0x1.fceaeb2ca5f12p+0, 0x1.f858aff31cbebp+0,
    0x1.f3da09746081fp+0, 0x1.ef6dcddc7d38dp+0, 0x1.eb12e91486bb8p+0,
    0x1.e6c85a849b011p+0, 0x1.e28d331c67238p+0, 0x1.de609397e09b4p+0,
    0x1.da41aaf79a33fp+0, 0x1.d62fb52580b81p+0, 0x1.d229f9bfeefd6p+0,
    0x1.ce2fcb05f8c2ep+0, 0x1.ca4084e091e2ep+0, 0x1.c65b8c04dbabcp+0,
    0x1.c2804d2c6b16ap+0, 0x1.beae3c60cd0dfp+0, 0x1.bae4d457ee113p+0,
    0x1.b72395df5b735p+0, 0x1.b36a075498d5ep+0, 0x1.afb7b428fe79cp+0,
    0x1.ac0c2c6fc637dp+0, 0x1.a867047516e4bp+0, 0x1.a4c7d45d01a2cp+0,
    0x1.a12e37c983364p+0, 0x1.9d99cd86b58aep+0, 0x1.9a0a373c73f1bp+0,
    0x1.967f1924c7affp+0, 0x1.92f819c682beep+0, 0x1.8f74e1b37c6b1p+0,
    0x1.8bf51b49ef330p+0, 0x1.887872788109fp+0, 0x1.84fe9484873b2p+0,
    0x1.81872fd21db6cp+0, 0x1.7e11f3adaeb8bp+0, 0x1.7a9e90168b8e7p+0,
    0x1.772cb58a39dcep+0, 0x1.73bc14d01a2c1p+0, 0x1.704c5ec50cb78p+0,
    0x1.6cdd4426b889cp+0, 0x1.696e755e16b7bp+0, 0x1.65ffa248e0164p+0,
    0x1.62907a0176eb6p+0, 0x1.5f20aaa4dfc11p+0, 0x1.5bafe1165480dp+0,
    0x1.583dc8bff3210p+0, 0x1.54ca0b4ffd340p+0, 0x1.515450720f44cp+0,
    0x1.4ddc3d83a5b7bp+0, 0x1.4a617543306c3p+0, 0x1.46e39778de059p+0,
    0x1.436240982ad94p+0, 0x1.3fdd09591d29bp+0, 0x1.3c538647ef788p+0,
    0x1.38c54749b9029p+0, 0x1.3531d7146a434p+0, 0x1.3198ba982d906p+0,
    0x1.2df97057e7ef0p+0, 0x1.2a536fae30e29p+0, 0x1.26a627fb9d115p+0,
    0x1.22f0ffbaa1e4bp+0, 0x1.1f335374a10eep+0, 0x1.1b6c7492c972bp+0,
    0x1.179ba80463fe2p+0, 0x1.13c024b2c7ebcp+0, 0x1.0fd911b97f22bp+0,
    0x1.0be58456ff4a2p+0, 0x1.07e47d87a40e9p+0, 0x1.03d4e7391c5aap+0,
    0x1.ff6b21fffe2fep-1, 0x1.f70a5866c8f2bp-1, 0x1.ee848e9568252p-1,
    0x1.e5d6909f51b4cp-1, 0x1.dcfccc51c59d2p-1, 0x1.d3f340dda60fep-1,
    0x1.cab56ac6a38b3p-1, 0x1.c13e2b014e83cp-1, 0x1.b787a7c516f19p-1,
    0x1.ad8b2506a1359p-1, 0x1.a340d1baf5af4p-1, 0x1.989f85c753b07p-1,
    0x1.8d9c6a9d35e17p-1, 0x1.822a858af0e56p-1, 0x1.763a1600eec4bp-1,
    0x1.69b7b213f3f3ep-1, 0x1.5c8afdbf0214ep-1, 0x1.4e94c08c0ba88p-1,
    0x1.3fabee1911ca4p-1, 0x1.2f98d6bb4f3e9p-1, 0x1.1e0ce6b596978p-1,
    0x1.0a936da5e556bp-1, 0x1.e8e576e43fb58p-2, 0x1.b4c8fece48dccp-2,
    0x1.73949184db8f2p-2, 0x1.16db47e193ca6p-2, 0.0};

/// |u| < edge[i + 1] / edge[i] puts the point inside layer i's rectangle.
/// Division is correctly rounded, so the compile-time quotients are the bits
/// a run-time division would give.
constexpr std::array<double, 128> inner_ratio = [] {
    std::array<double, 128> ratio{};
    for (std::size_t i = 0; i < ratio.size(); ++i) {
        ratio[i] = edge[i + 1] / edge[i];
    }
    return ratio;
}();

/// 2^k for k in [-1022, 1023], built in the exponent field.
double power_of_two(int k) noexcept {
    return std::bit_cast<double>(static_cast<std::uint64_t>(k + 1023) << 52);
}

/// Uniform in (0, 1], the tail test's log argument.
double open_uniform(rng& generator) noexcept {
    return static_cast<double>((generator.next_u64() >> 11) + 1) * 0x1.0p-53;
}

/// Marsaglia's tail method: a deviate beyond r, with the sign of u.
double tail(rng& generator, bool negative) noexcept {
    double x = 0.0;
    double y = 0.0;
    do {
        x = portable_log(open_uniform(generator)) / r;
        y = portable_log(open_uniform(generator));
    } while (-2.0 * y < x * x);
    return negative ? x - r : r - x;
}

} // namespace

double standard_normal(rng& generator) noexcept {
    for (;;) {
        const std::uint64_t bits = generator.next_u64();
        const std::size_t i = bits & 0x7F;
        const double u =
            static_cast<double>(static_cast<std::int64_t>(bits >> 11)) * 0x1.0p-52 - 1.0;
        const double x = u * edge[i];
        // Inside the layer's rectangle: 98.4% of draws end here.
        if (std::abs(u) < inner_ratio[i]) {
            return x;
        }
        if (i == 0) {
            return tail(generator, u < 0.0);
        }
        // Wedge test in Doornik's form: a uniform height between f(edge[i])
        // and f(edge[i + 1]), both divided by f(x), against 1.
        const double f0 = portable_exp(-0.5 * (edge[i] * edge[i] - x * x));
        const double f1 = portable_exp(-0.5 * (edge[i + 1] * edge[i + 1] - x * x));
        if (f1 + generator.uniform() * (f0 - f1) < 1.0) {
            return x;
        }
    }
}

const std::array<double, 129>& ziggurat_edges() noexcept { return edge; }

double portable_exp(double x) noexcept {
    // fdlibm e_exp.c: x = k ln2 + t with |t| <= ln2 / 2 (ln2 split so k * hi
    // is exact), then e^t = 1 + 2t / (2 - t + t^2 R(t^2)), rounded once.
    constexpr double ln2_hi = 0x1.62e42feep-1;
    constexpr double ln2_lo = 0x1.a39ef35793c76p-33;
    constexpr double inv_ln2 = 0x1.71547652b82fep+0;
    constexpr double p1 = 0x1.555555555553ep-3;
    constexpr double p2 = -0x1.6c16c16bebd93p-9;
    constexpr double p3 = 0x1.1566aaf25de2cp-14;
    constexpr double p4 = -0x1.bbd41c5d26bf1p-20;
    constexpr double p5 = 0x1.6376972bea4d0p-25;

    const int k = static_cast<int>(inv_ln2 * x + (x < 0.0 ? -0.5 : 0.5));
    const double hi = x - k * ln2_hi;
    const double lo = k * ln2_lo;
    const double t = hi - lo;
    const double tt = t * t;
    const double c = t - tt * (p1 + tt * (p2 + tt * (p3 + tt * (p4 + tt * p5))));
    if (k == 0) {
        return 1.0 - ((t * c) / (c - 2.0) - t);
    }
    return (1.0 - ((lo - (t * c) / (2.0 - c)) - hi)) * power_of_two(k);
}

double portable_log(double x) noexcept {
    // fdlibm e_log.c: x = 2^k (1 + f) with sqrt(2)/2 <= 1 + f < sqrt(2), and
    // ln(1 + f) = f - f^2/2 + s (f^2/2 + R(s^2)) with s = f / (2 + f).
    constexpr double ln2_hi = 0x1.62e42feep-1;
    constexpr double ln2_lo = 0x1.a39ef35793c76p-33;
    constexpr double lg1 = 0x1.5555555555593p-1;
    constexpr double lg2 = 0x1.999999997fa04p-2;
    constexpr double lg3 = 0x1.2492494229359p-2;
    constexpr double lg4 = 0x1.c71c51d8e78afp-3;
    constexpr double lg5 = 0x1.7466496cb03dep-3;
    constexpr double lg6 = 0x1.39a09d078c69fp-3;
    constexpr double lg7 = 0x1.2f112df3e5244p-3;

    const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
    const auto high = static_cast<std::int32_t>(bits >> 32);
    const std::int32_t mantissa_high = high & 0x000fffff;
    // Mantissas above sqrt(2) take the next exponent and halve.
    const std::int32_t carry = (mantissa_high + 0x95f64) & 0x100000;
    const int k = ((high >> 20) - 1023) + (carry >> 20);
    const auto scaled_high = static_cast<std::uint32_t>(mantissa_high | (carry ^ 0x3ff00000));
    const double m = std::bit_cast<double>((static_cast<std::uint64_t>(scaled_high) << 32) |
                                           (bits & 0xffffffffULL));
    const double f = m - 1.0;
    const double s = f / (2.0 + f);
    const double dk = k;
    const double z = s * s;
    const double w = z * z;
    const double t1 = w * (lg2 + w * (lg4 + w * lg6));
    const double t2 = z * (lg1 + w * (lg3 + w * (lg5 + w * lg7)));
    const double big_r = t2 + t1;
    // Far from 1 the f^2/2 split keeps the result within 1 ulp.
    if (((mantissa_high - 0x6147a) | (0x6b851 - mantissa_high)) > 0) {
        const double hfsq = 0.5 * f * f;
        return dk * ln2_hi - ((hfsq - (s * (hfsq + big_r) + dk * ln2_lo)) - f);
    }
    return dk * ln2_hi - ((s * (f - big_r) - dk * ln2_lo) - f);
}

} // namespace bistna
