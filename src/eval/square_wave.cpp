#include "eval/square_wave.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "sim/timebase.hpp"

namespace bistna::eval {

bool demod_reference::alignment_ok(std::size_t k) noexcept {
    // Quarter-period shift must be an integer number of samples and the
    // period must be even so half-cycles balance.
    return k == 0 || sim::timebase::oversampling_ratio % (4 * k) == 0;
}

demod_reference::demod_reference(std::size_t k) : k_(k) {
    BISTNA_EXPECTS(alignment_ok(k),
                   "square-wave alignment requires N mod 4k == 0 (paper section II)");
    period_ = k == 0 ? 0 : sim::timebase::oversampling_ratio / k;
    c1_ = k == 0 ? std::complex<double>(1.0, 0.0) : coefficient(1);
}

int demod_reference::in_phase_sign(std::size_t n) const noexcept {
    if (k_ == 0) {
        return +1;
    }
    return (n % period_) < period_ / 2 ? +1 : -1;
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
    std::complex<double> acc(0.0, 0.0);
    const double p = static_cast<double>(period_);
    for (std::size_t n = 0; n < period_; ++n) {
        const double angle = -two_pi * static_cast<double>(m) * static_cast<double>(n) / p;
        acc += static_cast<double>(in_phase_sign(n)) *
               std::complex<double>(std::cos(angle), std::sin(angle));
    }
    return acc / p;
}

} // namespace bistna::eval
