// The modulating square waves SQ_kT(t) and SQ_kT(t - T/4k) (paper Fig. 4).
//
// Both are +/-1 sequences derived from the master clock: period P = N/k
// samples, the quadrature copy delayed by P/4 samples, where N = 96 is the
// oversampling ratio the board fixes by construction
// (sim::timebase::oversampling_ratio).  The paper's alignment condition
// ("N/(2^3 k) integer") guarantees these shifts land on the sample grid; we
// require N mod 4k == 0 and N/k even.
//
// The demodulation constants are the *exact* discrete-time Fourier
// coefficients of the sampled square wave:
//     c_m = (1/P) sum_n q[n] e^{-j 2 pi m n / P}
// |c_1| -> 2/pi as P grows (the paper's eq. (4) uses pi/2 = 1/(2/pi));
// using the exact value removes a 0.002..0.3 % systematic, and arg(c_1)
// gives the half-sample phase reference offset.
#pragma once

#include <complex>
#include <cstddef>

namespace bistna::eval {

class demod_reference {
public:
    /// k = harmonic index (0 = DC).  Throws precondition_error if the
    /// alignment condition fails.
    explicit demod_reference(std::size_t k);

    /// True when SQ_kT and its quarter-period shift exist on the grid.
    static bool alignment_ok(std::size_t k) noexcept;

    std::size_t k() const noexcept { return k_; }
    /// Square-wave period in samples (N/k); 0 for k = 0.
    std::size_t period() const noexcept { return period_; }

    /// SQ_kT sign at master-clock sample n (+1/-1); +1 for k = 0.
    int in_phase_sign(std::size_t n) const noexcept;

    /// SQ_kT(t - T/4k) sign at sample n; +1 for k = 0.
    int quadrature_sign(std::size_t n) const noexcept;

    /// Exact m-th Fourier coefficient of the sampled in-phase square wave.
    std::complex<double> coefficient(std::size_t m) const;

    /// Fundamental coefficient c_1 (magnitude ~ 2/pi, phase ~ pi/P - pi/2).
    /// It takes one value per aligned k, summed once per process by
    /// coefficient(1)'s loop (the same bits), so a reference costs no
    /// trigonometry to build.
    std::complex<double> c1() const { return c1_; }

private:
    std::size_t k_;
    std::size_t period_;
    std::complex<double> c1_;
};

} // namespace bistna::eval
