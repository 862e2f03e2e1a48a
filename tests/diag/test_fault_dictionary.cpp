// Signature space: component-name encoding round-trips the space,
// malformed names are rejected, and signature extraction sanitizes the
// unbounded readings hard faults produce.  Dictionary files are covered by
// the DictionaryBinary suite.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "core/screening.hpp"
#include "diag/fault_dictionary.hpp"

namespace {

using namespace bistna;

diag::signature_space paper_space(std::size_t thd_max_harmonic = 3) {
    return diag::signature_space::from_mask(core::spec_mask::paper_lowpass(),
                                            thd_max_harmonic);
}

TEST(SignatureSpace, DimensionsAndNamesAgree) {
    const auto space = paper_space();
    EXPECT_EQ(space.dimensions(), 3u + 3u + 3u + 1u);
    const auto names = space.component_names();
    ASSERT_EQ(names.size(), space.dimensions());
    EXPECT_EQ(names.front(), "stimulus_volts");
    EXPECT_EQ(names[3], "gain_db@200");
    EXPECT_EQ(names[6], "phase_deg@200");
    EXPECT_EQ(names.back(), "thd3_db@200");
    EXPECT_EQ(space.component_floors().size(), space.dimensions());
}

TEST(SignatureSpace, ParseInvertsComponentNames) {
    for (std::size_t thd : {std::size_t{0}, std::size_t{3}}) {
        const auto space = paper_space(thd);
        EXPECT_EQ(diag::signature_space::parse(space.component_names()), space);
    }
}

TEST(SignatureSpace, ParseRejectsMalformedNames) {
    EXPECT_THROW(diag::signature_space::parse(std::vector<std::string>{"bogus"}),
                 configuration_error);
    EXPECT_THROW(diag::signature_space::parse(std::vector<std::string>{"gain_db@abc"}),
                 configuration_error);
    EXPECT_THROW(diag::signature_space::parse(std::vector<std::string>{"thd3@200"}),
                 configuration_error);
    // Harmonic counts that would be cast UB or nonsense: rejected before
    // any cast.
    for (const char* name : {"thd-3_db@200", "thd1_db@200", "thd1e300_db@200",
                             "thd2.5_db@200"}) {
        EXPECT_THROW(diag::signature_space::parse(std::vector<std::string>{name}),
                     configuration_error)
            << name;
    }
    // Gain and phase frequency lists must agree.
    EXPECT_THROW(diag::signature_space::parse(
                     std::vector<std::string>{"gain_db@200", "phase_deg@300"}),
                 configuration_error);
}

TEST(SignatureSpace, FromReportRequiresDiagnosticData) {
    const auto space = paper_space();
    core::screening_report report;
    report.stimulus_volts = 0.3;
    // No limits measured (non-diagnostic early return): extraction refuses.
    EXPECT_THROW(space.from_report(report), configuration_error);
}

TEST(SignatureSpace, FromReportExtractsComponentsInOrder) {
    const auto space = paper_space();
    const auto mask = core::spec_mask::paper_lowpass();
    core::screening_report report;
    report.stimulus_volts = 0.302;
    report.stimulus_phase_deg = 103.5;
    report.offset_rate = 0.01;
    for (std::size_t i = 0; i < mask.limits.size(); ++i) {
        core::limit_result result;
        result.limit = mask.limits[i];
        result.limit_index = i;
        result.measured_db = -3.0 - static_cast<double>(i);
        result.phase_deg = -45.0 * static_cast<double>(i + 1);
        report.limits.push_back(result);
    }
    report.distortion_measured = true;
    report.thd_db = -55.5;
    report.thd_f_hz = 200.0;

    const auto signature = space.from_report(report);
    ASSERT_EQ(signature.size(), space.dimensions());
    EXPECT_EQ(signature[0], 0.302);
    EXPECT_EQ(signature[1], 103.5);
    EXPECT_EQ(signature[2], 0.01);
    EXPECT_EQ(signature[3], -3.0);   // gain@200
    EXPECT_EQ(signature[6], -45.0);  // phase@200
    EXPECT_EQ(signature.back(), -55.5);

    // A space whose thd_f_hz was left at the 0-means-default resolves it
    // exactly like screening does (first frequency), so extraction still
    // finds the measurement.
    auto defaulted = space;
    defaulted.thd_f_hz = 0.0;
    EXPECT_EQ(defaulted.resolved_thd_f_hz(), 200.0);
    EXPECT_EQ(defaulted.screening_options().distortion_f_hz, 200.0);
    EXPECT_EQ(defaulted.from_report(report).back(), -55.5);
}

TEST(SignatureSpace, ExtractionSanitizesUnboundedReadings) {
    const auto space = paper_space();
    const auto mask = core::spec_mask::paper_lowpass();
    core::screening_report report;
    report.stimulus_volts = 0.0; // dead stimulus
    for (std::size_t i = 0; i < mask.limits.size(); ++i) {
        core::limit_result result;
        result.limit = mask.limits[i];
        result.measured_db = i == 0 ? -std::numeric_limits<double>::infinity()
                                    : std::numeric_limits<double>::quiet_NaN();
        report.limits.push_back(result);
    }
    report.distortion_measured = true;
    report.thd_db = std::numeric_limits<double>::infinity();
    report.thd_f_hz = 200.0;

    const auto signature = space.from_report(report);
    for (double component : signature) {
        EXPECT_TRUE(std::isfinite(component));
    }
    EXPECT_EQ(signature[3], diag::signature_space::gain_clamp_db);
    EXPECT_EQ(signature.back(), -diag::signature_space::thd_clamp_db);
}

} // namespace
