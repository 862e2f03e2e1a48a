#include "eval/square_wave.hpp"

#include <array>
#include <cmath>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "sim/timebase.hpp"

namespace bistna::eval {

namespace {

constexpr std::size_t n_per_period = sim::timebase::oversampling_ratio;

/// The sampled in-phase square wave of `period` samples at sample n.
int square_sign(std::size_t period, std::size_t n) noexcept {
    return (n % period) < period / 2 ? +1 : -1;
}

/// Exact m-th Fourier coefficient of that wave, summed over one period.
std::complex<double> sampled_coefficient(std::size_t period, std::size_t m) {
    std::complex<double> acc(0.0, 0.0);
    const double p = static_cast<double>(period);
    for (std::size_t n = 0; n < period; ++n) {
        const double angle = -two_pi * static_cast<double>(m) * static_cast<double>(n) / p;
        acc += static_cast<double>(square_sign(period, n)) *
               std::complex<double>(std::cos(angle), std::sin(angle));
    }
    return acc / p;
}

/// c_1 of every aligned k (index k; an aligned k is at most N/4), summed
/// once per process instead of once per reference.
const std::array<std::complex<double>, n_per_period / 4 + 1>& c1_table() {
    static const auto table = [] {
        std::array<std::complex<double>, n_per_period / 4 + 1> c1{};
        c1[0] = std::complex<double>(1.0, 0.0);
        for (std::size_t k = 1; k < c1.size(); ++k) {
            if (demod_reference::alignment_ok(k)) {
                c1[k] = sampled_coefficient(n_per_period / k, 1);
            }
        }
        return c1;
    }();
    return table;
}

} // namespace

bool demod_reference::alignment_ok(std::size_t k) noexcept {
    // Quarter-period shift must be an integer number of samples and the
    // period must be even so half-cycles balance.
    return k == 0 || n_per_period % (4 * k) == 0;
}

demod_reference::demod_reference(std::size_t k) : k_(k) {
    BISTNA_EXPECTS(alignment_ok(k),
                   "square-wave alignment requires N mod 4k == 0 (paper section II)");
    period_ = k == 0 ? 0 : n_per_period / k;
    c1_ = c1_table()[k];
}

int demod_reference::in_phase_sign(std::size_t n) const noexcept {
    if (k_ == 0) {
        return +1;
    }
    return square_sign(period_, n);
}

int demod_reference::quadrature_sign(std::size_t n) const noexcept {
    if (k_ == 0) {
        return +1;
    }
    const std::size_t shift = period_ / 4;
    // q'(n) = q(n - P/4), with wraparound.
    return in_phase_sign(n + period_ - shift);
}

std::complex<double> demod_reference::coefficient(std::size_t m) const {
    if (k_ == 0) {
        return m == 0 ? std::complex<double>(1.0, 0.0) : std::complex<double>(0.0, 0.0);
    }
    return sampled_coefficient(period_, m);
}

} // namespace bistna::eval
