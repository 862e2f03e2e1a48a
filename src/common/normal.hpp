// Standard normal deviates for the sigma-delta modulator's per-sample noise.
//
// A 128-layer ziggurat (Marsaglia & Tsang 2000) in Doornik's 2005 ZIGNOR
// layout, drawn from the caller's xoshiro256** stream.  The layer edges are
// hex-float literals, and the rare wedge and tail tests use portable_exp and
// portable_log below, which are built from IEEE double +, -, *, / and
// exponent-field arithmetic alone.  So the draws are the same bits on every
// host: no libm function is called (CI checks the object file for libm
// symbols), and the build-wide -ffp-contract=off keeps the compiler from
// fusing the arithmetic.
//
// rng::gaussian (Box-Muller over the host libm) still serves process draws,
// op-amp noise and the baseline instruments; see README "Random streams".
#pragma once

#include <array>

#include "common/rng.hpp"

namespace bistna {

/// One N(0, 1) deviate.  A fast-path draw consumes one next_u64(): bits 0-6
/// pick the layer and bits 11-63 give u in [-1, 1).  Wedge and tail tests
/// consume more words (1.012 tries per draw on average), so the number of
/// words a draw consumes varies, but it is a pure function of the stream.
double standard_normal(rng& generator) noexcept;

/// Start of the tail r and the common layer area v (Doornik's constants).
inline constexpr double ziggurat_tail_start = 3.442619855899;
inline constexpr double ziggurat_layer_area = 9.91256303526217e-3;

/// Layer edges x[0..128]: x[0] = v / f(r) (the base strip's width), x[1] = r,
/// x[i] = sqrt(-2 ln(v / x[i-1] + f(x[i-1]))) for i = 2..127, and x[128] = 0,
/// where f(x) = exp(-x^2 / 2).
const std::array<double, 129>& ziggurat_edges() noexcept;

/// e^x for |x| <= 708, within 1 ulp (fdlibm's reduction and rational
/// approximation).  The draw passes arguments in about [-0.74, 0.74].
double portable_exp(double x) noexcept;

/// ln x for positive normal x, within 1 ulp (fdlibm's reduction and
/// polynomial).  The draw passes arguments in [2^-53, 1].
double portable_log(double x) noexcept;

} // namespace bistna
