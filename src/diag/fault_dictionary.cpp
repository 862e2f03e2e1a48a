#include "diag/fault_dictionary.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <system_error>

#include "common/error.hpp"
#include "common/math_util.hpp"

namespace bistna::diag {

namespace {

/// to_chars, not an ostringstream: component names are part of the
/// on-disk dictionary schema, and a stream would consult the global
/// locale (a grouping locale turns "gain_db@1000" into "gain_db@1.000",
/// which parse() then rejects on every other machine).
std::string format_frequency(double f_hz) {
    char buf[64];
    const auto [end, ec] = std::to_chars(buf, buf + sizeof buf, f_hz);
    if (ec != std::errc{}) {
        throw configuration_error("signature_space: cannot format frequency");
    }
    return std::string(buf, end);
}

double parse_double(const std::string& text, const std::string& what) {
    double value = 0.0;
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc{} || ptr != end) {
        throw configuration_error("signature_space: malformed " + what + " '" + text + "'");
    }
    return value;
}

bool same_frequency(double a, double b) {
    return std::abs(a - b) <= 1e-9 * std::max(1.0, std::max(std::abs(a), std::abs(b)));
}

/// Hard-faulted dice can measure +/-inf dB (zero or unbounded amplitude
/// ratios) or even NaN (0/0); the classifier's distance arithmetic needs
/// every component finite.
double sanitize_db(double db, double floor_db) {
    if (std::isnan(db)) {
        return floor_db;
    }
    return std::clamp(db, floor_db, -floor_db);
}

} // namespace

std::size_t signature_space::dimensions() const {
    std::size_t d = 0;
    d += include_stimulus ? 1 : 0;
    d += include_stimulus_phase ? 1 : 0;
    d += include_offset ? 1 : 0;
    d += include_gain ? frequencies_hz.size() : 0;
    d += include_phase ? frequencies_hz.size() : 0;
    d += thd_max_harmonic >= 2 ? 1 : 0;
    return d;
}

std::vector<std::string> signature_space::component_names() const {
    std::vector<std::string> names;
    names.reserve(dimensions());
    if (include_stimulus) {
        names.push_back("stimulus_volts");
    }
    if (include_stimulus_phase) {
        names.push_back("stimulus_phase_deg");
    }
    if (include_offset) {
        names.push_back("offset_rate");
    }
    if (include_gain) {
        for (double f : frequencies_hz) {
            names.push_back("gain_db@" + format_frequency(f));
        }
    }
    if (include_phase) {
        for (double f : frequencies_hz) {
            names.push_back("phase_deg@" + format_frequency(f));
        }
    }
    if (thd_max_harmonic >= 2) {
        names.push_back("thd" + std::to_string(thd_max_harmonic) + "_db@" +
                        format_frequency(thd_f_hz));
    }
    return names;
}

signature_space signature_space::parse(std::span<const std::string> names) {
    signature_space space;
    space.include_stimulus = false;
    space.include_stimulus_phase = false;
    space.include_offset = false;
    space.include_gain = false;
    space.include_phase = false;

    std::vector<double> gain_frequencies;
    std::vector<double> phase_frequencies;
    for (const std::string& name : names) {
        if (name == "stimulus_volts") {
            space.include_stimulus = true;
        } else if (name == "stimulus_phase_deg") {
            space.include_stimulus_phase = true;
        } else if (name == "offset_rate") {
            space.include_offset = true;
        } else if (name.starts_with("gain_db@")) {
            space.include_gain = true;
            gain_frequencies.push_back(parse_double(name.substr(8), "gain frequency"));
        } else if (name.starts_with("phase_deg@")) {
            space.include_phase = true;
            phase_frequencies.push_back(parse_double(name.substr(10), "phase frequency"));
        } else if (name.starts_with("thd")) {
            const auto at = name.find("_db@");
            if (at == std::string::npos) {
                throw configuration_error("signature_space: malformed THD component '" +
                                          name + "'");
            }
            // Validate before the size_t cast: shipped headers are
            // cross-machine input, and a negative or huge count must fail
            // cleanly, not hit cast UB.
            const double harmonics = parse_double(name.substr(3, at - 3),
                                                  "THD harmonic count");
            if (!(harmonics >= 2.0) || harmonics != std::floor(harmonics) ||
                harmonics > 1024.0) {
                throw configuration_error("signature_space: THD harmonic count out of "
                                          "range in '" + name + "'");
            }
            space.thd_max_harmonic = static_cast<std::size_t>(harmonics);
            space.thd_f_hz = parse_double(name.substr(at + 4), "THD frequency");
        } else {
            throw configuration_error("signature_space: unknown component '" + name + "'");
        }
    }
    if (space.include_gain && space.include_phase &&
        gain_frequencies != phase_frequencies) {
        throw configuration_error(
            "signature_space: gain and phase component frequencies disagree");
    }
    space.frequencies_hz =
        space.include_gain ? std::move(gain_frequencies) : std::move(phase_frequencies);
    return space;
}

std::vector<double> signature_space::component_floors() const {
    // Rough single-acquisition measurement resolutions: components whose
    // dictionary spread is below these carry no usable fault information.
    std::vector<double> floors;
    floors.reserve(dimensions());
    if (include_stimulus) {
        floors.push_back(2.0e-3); // volts
    }
    if (include_stimulus_phase) {
        floors.push_back(0.05); // degrees
    }
    if (include_offset) {
        floors.push_back(5.0e-4); // count rate
    }
    // Gain/phase floors cover ordinary DUT process variation on top of
    // measurement noise: die-to-die component tolerances move the Bode
    // points by a few tenths of a dB / a degree without any fault present,
    // and that spread must not read as fault distance.
    if (include_gain) {
        floors.insert(floors.end(), frequencies_hz.size(), 0.5); // dB
    }
    if (include_phase) {
        floors.insert(floors.end(), frequencies_hz.size(), 1.0); // degrees
    }
    if (thd_max_harmonic >= 2) {
        floors.push_back(2.0); // dB (single-acquisition THD jitter is large)
    }
    return floors;
}

signature_space signature_space::from_mask(const core::spec_mask& mask,
                                           std::size_t thd_max_harmonic, double thd_f_hz) {
    BISTNA_EXPECTS(!mask.limits.empty(), "spec mask has no limits");
    signature_space space;
    space.frequencies_hz.reserve(mask.limits.size());
    for (const auto& limit : mask.limits) {
        space.frequencies_hz.push_back(limit.f_hz);
    }
    space.thd_max_harmonic = thd_max_harmonic;
    if (thd_max_harmonic >= 2) {
        space.thd_f_hz = thd_f_hz > 0.0 ? thd_f_hz : mask.limits.front().f_hz;
    }
    return space;
}

double signature_space::resolved_thd_f_hz() const {
    if (thd_f_hz > 0.0) {
        return thd_f_hz;
    }
    BISTNA_EXPECTS(!frequencies_hz.empty(),
                   "signature space has no frequency to default the THD point to");
    return frequencies_hz.front();
}

core::screening_options signature_space::screening_options() const {
    core::screening_options options;
    options.continue_after_self_test_failure = true;
    options.measure_distortion = thd_max_harmonic >= 2;
    if (options.measure_distortion) {
        options.distortion_f_hz = resolved_thd_f_hz();
    }
    options.distortion_max_harmonic = thd_max_harmonic;
    return options;
}

std::vector<double> signature_space::from_report(const core::screening_report& report) const {
    std::vector<double> signature;
    signature.reserve(dimensions());
    if (include_stimulus) {
        signature.push_back(report.stimulus_volts);
    }
    if (include_stimulus_phase) {
        signature.push_back(report.stimulus_phase_deg);
    }
    if (include_offset) {
        signature.push_back(report.offset_rate);
    }
    const auto find_limit = [&](double f_hz) -> const core::limit_result& {
        for (const auto& result : report.limits) {
            if (same_frequency(result.limit.f_hz, f_hz)) {
                return result;
            }
        }
        throw configuration_error(
            "signature_space: report has no limit at " + format_frequency(f_hz) +
            " Hz (screen with the space's diagnostic options)");
    };
    if (include_gain) {
        for (double f : frequencies_hz) {
            signature.push_back(sanitize_db(find_limit(f).measured_db, gain_clamp_db));
        }
    }
    if (include_phase) {
        for (double f : frequencies_hz) {
            signature.push_back(find_limit(f).phase_deg);
        }
    }
    if (thd_max_harmonic >= 2) {
        const double f_hz = resolved_thd_f_hz();
        if (!report.distortion_measured || !same_frequency(report.thd_f_hz, f_hz)) {
            throw configuration_error(
                "signature_space: report has no THD measurement at " +
                format_frequency(f_hz) + " Hz");
        }
        signature.push_back(sanitize_db(report.thd_db, thd_clamp_db));
    }
    return signature;
}

std::vector<double> signature_space::from_acquisition(
    const core::sweep_engine::acquisition_result& result) const {
    BISTNA_EXPECTS(result.points.size() == frequencies_hz.size(),
                   "acquisition frequency count does not match the signature space");
    std::vector<double> signature;
    signature.reserve(dimensions());
    if (include_stimulus) {
        signature.push_back(result.calibration.amplitude.volts);
    }
    if (include_stimulus_phase) {
        signature.push_back(rad_to_deg(result.calibration.phase.radians));
    }
    if (include_offset) {
        signature.push_back(result.offset_rate);
    }
    if (include_gain) {
        for (const auto& point : result.points) {
            signature.push_back(sanitize_db(point.gain_db, gain_clamp_db));
        }
    }
    if (include_phase) {
        for (const auto& point : result.points) {
            signature.push_back(point.phase_deg);
        }
    }
    if (thd_max_harmonic >= 2) {
        if (!result.has_thd) {
            throw configuration_error(
                "signature_space: acquisition measured no THD (program must set "
                "distortion_max_harmonic >= 2)");
        }
        signature.push_back(sanitize_db(result.thd_db, thd_clamp_db));
    }
    return signature;
}

} // namespace bistna::diag
