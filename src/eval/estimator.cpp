#include "eval/estimator.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/math_util.hpp"
#include "common/units.hpp"

namespace bistna::eval {

namespace {

interval signature_interval(double count, double eps_bound) {
    return interval::centered(count, eps_bound);
}

} // namespace

dc_measurement estimate_dc(const signature_result& sig) {
    BISTNA_EXPECTS(sig.harmonic_k == 0, "DC estimation requires a k = 0 signature");
    BISTNA_EXPECTS(sig.total_samples > 0, "empty signature");
    const double mn = static_cast<double>(sig.total_samples);
    dc_measurement m;
    m.volts = sig.vref * sig.i1 / mn;
    m.bounds_volts = signature_interval(sig.i1, sig.eps_bound) * (sig.vref / mn);
    return m;
}

amplitude_measurement estimate_amplitude(const signature_result& sig) {
    BISTNA_EXPECTS(sig.harmonic_k > 0, "harmonic amplitude requires k >= 1");
    BISTNA_EXPECTS(sig.total_samples > 0, "empty signature");
    const double mn = static_cast<double>(sig.total_samples);
    const double c1_mag = std::abs(demod_reference(sig.harmonic_k).c1());
    const double scale = sig.vref / (mn * c1_mag);

    amplitude_measurement m;
    m.harmonic_k = sig.harmonic_k;
    m.volts = std::hypot(sig.i1, sig.i2) * scale;
    // eq. (4): min/max of sqrt((I1+e1)^2 + (I2+e2)^2) over the eps box.
    const interval i1 = signature_interval(sig.i1, sig.eps_bound);
    const interval i2 = signature_interval(sig.i2, sig.eps_bound);
    m.bounds_volts = bistna::hypot(i1, i2) * scale;

    m.dbfs = amplitude_to_dbfs(m.volts, full_scale_reference);
    m.bounds_dbfs =
        interval(amplitude_to_dbfs(m.bounds_volts.lo(), full_scale_reference),
                 amplitude_to_dbfs(m.bounds_volts.hi(), full_scale_reference));
    return m;
}

std::optional<phase_measurement> estimate_phase(const signature_result& sig) {
    BISTNA_EXPECTS(sig.harmonic_k > 0, "harmonic phase requires k >= 1");
    const interval i1 = signature_interval(sig.i1, sig.eps_bound);
    const interval i2 = signature_interval(sig.i2, sig.eps_bound);
    if (i1.contains_zero() && i2.contains_zero()) {
        return std::nullopt; // box encloses the origin: phase undetermined
    }
    // I1 ~ A|c1| sin(phi~), I2 ~ A|c1| cos(phi~); phi = phi~ + arg(c1).
    const double reference = std::arg(demod_reference(sig.harmonic_k).c1());
    phase_measurement m;
    m.harmonic_k = sig.harmonic_k;
    m.radians = wrap_phase(std::atan2(sig.i1, sig.i2) + reference);
    const interval box = atan2_box(i1, i2) + reference;
    // Keep the interval centered on the wrapped point value.
    const double shift = m.radians - (std::atan2(sig.i1, sig.i2) + reference);
    m.bounds_radians = box + shift;
    return m;
}

harmonic_measurement estimate_harmonic(const signature_result& sig) {
    harmonic_measurement m;
    m.amplitude = estimate_amplitude(sig);
    m.phase = estimate_phase(sig);
    m.signature = sig;
    return m;
}

thd_measurement compute_thd(const std::vector<amplitude_measurement>& harmonics) {
    BISTNA_EXPECTS(harmonics.size() >= 2, "THD needs a fundamental and at least one harmonic");
    const auto& fundamental = harmonics.front();
    BISTNA_EXPECTS(fundamental.bounds_volts.lo() > 0.0,
                   "THD undefined: fundamental amplitude interval reaches zero");

    double distortion_sq = 0.0;
    interval distortion_sq_bounds(0.0);
    for (std::size_t i = 1; i < harmonics.size(); ++i) {
        distortion_sq += square(harmonics[i].volts);
        distortion_sq_bounds = distortion_sq_bounds + bistna::square(harmonics[i].bounds_volts);
    }
    const double distortion = std::sqrt(distortion_sq);
    const interval distortion_bounds = bistna::sqrt(distortion_sq_bounds);

    thd_measurement thd;
    thd.db = amplitude_ratio_to_db(distortion / fundamental.volts);
    thd.bounds_db =
        interval(amplitude_ratio_to_db(distortion_bounds.lo() / fundamental.bounds_volts.hi()),
                 amplitude_ratio_to_db(distortion_bounds.hi() / fundamental.bounds_volts.lo()));
    return thd;
}

thd_measurement compute_thd_lenient(const std::vector<amplitude_measurement>& harmonics) {
    BISTNA_EXPECTS(harmonics.size() >= 2, "THD needs a fundamental and at least one harmonic");
    if (harmonics.front().bounds_volts.lo() > 0.0) {
        return compute_thd(harmonics);
    }
    constexpr double inf = std::numeric_limits<double>::infinity();
    return thd_measurement{inf, interval(-inf, inf)};
}

} // namespace bistna::eval
