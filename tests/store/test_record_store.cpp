// Round trips through the framed binary record format: every converter
// must be bit-exact against the in-memory struct -- NaN payloads, signed
// zeros and infinities travel as bit patterns, limit names ship with the
// report (which the CSV seam cannot do), and a seeded fuzz loop hammers
// the encoders with randomized reports.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/screening.hpp"
#include "store/record_io.hpp"
#include "store/records.hpp"

namespace {

using namespace bistna;
using core::screening_report;

class temp_file {
public:
    explicit temp_file(const char* name) : path_(std::string("/tmp/") + name) {
        std::remove(path_.c_str());
    }
    ~temp_file() { std::remove(path_.c_str()); }
    const std::string& path() const { return path_; }

private:
    std::string path_;
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

void expect_bit_equal(double a, double b, const char* what) {
    EXPECT_EQ(bits(a), bits(b)) << what << ": " << a << " vs " << b;
}

void expect_interval_equal(const interval& a, const interval& b, const char* what) {
    expect_bit_equal(a.lo(), b.lo(), what);
    expect_bit_equal(a.hi(), b.hi(), what);
}

void expect_report_bit_equal(const screening_report& a, const screening_report& b) {
    EXPECT_EQ(a.passed, b.passed);
    EXPECT_EQ(a.self_test_passed, b.self_test_passed);
    EXPECT_EQ(a.distortion_measured, b.distortion_measured);
    expect_bit_equal(a.stimulus_volts, b.stimulus_volts, "stimulus_volts");
    expect_bit_equal(a.stimulus_phase_deg, b.stimulus_phase_deg, "stimulus_phase_deg");
    expect_bit_equal(a.offset_rate, b.offset_rate, "offset_rate");
    expect_bit_equal(a.thd_db, b.thd_db, "thd_db");
    expect_bit_equal(a.thd_f_hz, b.thd_f_hz, "thd_f_hz");
    ASSERT_EQ(a.limits.size(), b.limits.size());
    for (std::size_t j = 0; j < a.limits.size(); ++j) {
        const auto& x = a.limits[j];
        const auto& y = b.limits[j];
        EXPECT_EQ(x.limit.name, y.limit.name);
        EXPECT_EQ(x.limit_index, y.limit_index);
        EXPECT_EQ(x.passed, y.passed);
        expect_bit_equal(x.limit.f_hz, y.limit.f_hz, "f_hz");
        expect_bit_equal(x.limit.gain_db_min, y.limit.gain_db_min, "gain_db_min");
        expect_bit_equal(x.limit.gain_db_max, y.limit.gain_db_max, "gain_db_max");
        expect_bit_equal(x.measured_db, y.measured_db, "measured_db");
        expect_interval_equal(x.measured_bounds_db, y.measured_bounds_db, "bounds_db");
        expect_bit_equal(x.phase_deg, y.phase_deg, "phase_deg");
        expect_interval_equal(x.phase_deg_bounds, y.phase_deg_bounds, "phase_bounds");
        expect_bit_equal(x.margin_db, y.margin_db, "margin_db");
    }
}

/// A report exercising every serialization edge: unmeasured NaN THD,
/// infinities, signed zero, a NaN with a non-canonical payload, and
/// limit names that would need quoting in CSV.
screening_report awkward_report() {
    screening_report report;
    report.passed = false;
    report.self_test_passed = true;
    report.stimulus_volts = 0.15000000000000002;
    report.stimulus_phase_deg = -0.0;
    report.offset_rate = std::bit_cast<double>(std::uint64_t{0x7FF8DEADBEEF1234ull});
    report.distortion_measured = false; // thd_db stays the NaN sentinel
    report.thd_f_hz = std::numeric_limits<double>::infinity();
    core::limit_result result;
    result.limit.name = "pass band, \"edge\"";
    result.limit.f_hz = 1000.0;
    result.limit.gain_db_min = -std::numeric_limits<double>::infinity();
    result.limit.gain_db_max = 0.5;
    result.limit_index = 7;
    result.measured_db = -3.0103;
    result.measured_bounds_db = interval(-3.2, -2.9);
    result.phase_deg = -45.0;
    result.phase_deg_bounds = interval(-46.0, -44.0);
    result.margin_db = std::numeric_limits<double>::denorm_min();
    result.passed = true;
    report.limits.push_back(result);
    report.limits.push_back(core::limit_result{}); // all-default limit
    return report;
}

TEST(RecordStore, ScreeningReportRoundTripsBitExactly) {
    const auto report = awkward_report();
    const auto record = store::to_record(report, /*die=*/12345678901234ull);
    const auto restored = store::report_from_record(record);
    EXPECT_EQ(restored.die, 12345678901234ull);
    expect_report_bit_equal(restored.report, report);

    // The unmeasured THD really is the NaN sentinel, not a fake reading.
    EXPECT_TRUE(std::isnan(restored.report.thd_db));
    // And the awkward NaN payload survived exactly.
    EXPECT_EQ(bits(restored.report.offset_rate), 0x7FF8DEADBEEF1234ull);
}

TEST(RecordStore, AcquisitionResultRoundTripsBitExactly) {
    core::sweep_engine::acquisition_result result;
    result.calibration.amplitude.volts = 0.2999999999999997;
    result.calibration.amplitude.bounds_volts = interval(0.29, 0.31);
    result.calibration.amplitude.dbfs = -12.5;
    result.calibration.amplitude.bounds_dbfs = interval(-12.6, -12.4);
    result.calibration.amplitude.harmonic_k = 1;
    result.calibration.phase.radians = 1.5707963267948966;
    result.calibration.phase.bounds_radians = interval(1.5, 1.6);
    result.calibration.phase.harmonic_k = 1;
    result.offset_rate = -0.0;
    result.has_thd = false; // thd_db stays NaN
    core::frequency_point point;
    point.f_wave = hertz{997.0};
    point.gain_db = -0.1;
    point.gain_db_bounds = interval(-0.2, 0.0);
    point.phase_deg = -9.0;
    point.phase_deg_bounds = interval(-9.5, -8.5);
    point.ideal_gain_db = -0.09;
    point.ideal_phase_deg = -8.9;
    result.points.push_back(point);

    const auto record = store::to_record(result, /*item=*/6);
    const auto restored = store::acquisition_from_record(record);
    EXPECT_EQ(restored.item, 6u);
    EXPECT_EQ(restored.result.has_thd, false);
    EXPECT_TRUE(std::isnan(restored.result.thd_db));
    expect_bit_equal(restored.result.calibration.amplitude.volts,
                     result.calibration.amplitude.volts, "volts");
    expect_interval_equal(restored.result.calibration.amplitude.bounds_volts,
                          result.calibration.amplitude.bounds_volts, "bounds_volts");
    expect_bit_equal(restored.result.calibration.phase.radians,
                     result.calibration.phase.radians, "radians");
    expect_bit_equal(restored.result.offset_rate, result.offset_rate, "offset_rate");
    EXPECT_EQ(bits(restored.result.offset_rate), bits(-0.0)); // sign of zero kept
    ASSERT_EQ(restored.result.points.size(), 1u);
    expect_bit_equal(restored.result.points[0].f_wave.value, 997.0, "f_wave");
    expect_interval_equal(restored.result.points[0].gain_db_bounds,
                          point.gain_db_bounds, "gain bounds");
    expect_bit_equal(restored.result.points[0].ideal_phase_deg, point.ideal_phase_deg,
                     "ideal_phase_deg");
}

TEST(RecordStore, WrongRecordTypeIsRejected) {
    const auto record = store::to_record(awkward_report(), 1);
    EXPECT_THROW((void)store::acquisition_from_record(record), serialization_error);
    const auto acquisition = store::to_record(core::sweep_engine::acquisition_result{}, 1);
    EXPECT_THROW((void)store::report_from_record(acquisition), serialization_error);
}

TEST(RecordStore, WriterReaderStreamRoundTrip) {
    temp_file file("bistna_store_stream.bin");
    std::vector<screening_report> reports;
    for (int i = 0; i < 5; ++i) {
        auto report = awkward_report();
        report.stimulus_volts = 0.1 * (i + 1);
        reports.push_back(report);
    }
    {
        store::record_writer writer(file.path());
        for (std::size_t i = 0; i < reports.size(); ++i) {
            writer.append(store::to_record(reports[i], 100 + i));
        }
        writer.flush();
        EXPECT_EQ(writer.records_written(), reports.size());
    }

    store::record_reader reader(file.path());
    std::size_t count = 0;
    while (auto record = reader.next()) {
        const auto restored = store::report_from_record(*record);
        EXPECT_EQ(restored.die, 100 + count);
        expect_report_bit_equal(restored.report, reports[count]);
        ++count;
    }
    EXPECT_EQ(count, reports.size());
    EXPECT_EQ(reader.records_read(), reports.size());
}

/// Randomized reports (seeded MC): any double field may be an ordinary
/// value, a denormal, an infinity or a payload-carrying NaN, and every
/// one must survive the byte round trip bit-exactly.
TEST(RecordStore, FuzzedReportsRoundTripBitExactly) {
    rng gen(20260807);
    const auto random_double = [&]() -> double {
        const double pick = gen.uniform();
        if (pick < 0.1) {
            // Arbitrary bit pattern: covers NaN payloads, denormals, infs.
            return std::bit_cast<double>(gen.next_u64());
        }
        if (pick < 0.15) {
            return std::numeric_limits<double>::quiet_NaN();
        }
        if (pick < 0.2) {
            return (pick < 0.175 ? 1.0 : -1.0) * std::numeric_limits<double>::infinity();
        }
        return gen.gaussian() * std::pow(10.0, gen.uniform(-12.0, 12.0));
    };

    for (int round = 0; round < 200; ++round) {
        screening_report report;
        report.passed = gen.uniform() < 0.5;
        report.self_test_passed = gen.uniform() < 0.5;
        report.distortion_measured = gen.uniform() < 0.5;
        report.stimulus_volts = random_double();
        report.stimulus_phase_deg = random_double();
        report.offset_rate = random_double();
        report.thd_db = random_double();
        report.thd_f_hz = random_double();
        const auto limit_count = static_cast<std::size_t>(gen.uniform_int(5));
        for (std::size_t j = 0; j < limit_count; ++j) {
            core::limit_result result;
            result.limit.name = "limit-" + std::to_string(gen.uniform_int(1000));
            result.limit.f_hz = random_double();
            result.limit.gain_db_min = random_double();
            result.limit.gain_db_max = random_double();
            result.limit_index = j;
            result.measured_db = random_double();
            result.measured_bounds_db = interval::from_unordered(gen.gaussian(), gen.gaussian());
            result.phase_deg = random_double();
            result.phase_deg_bounds = interval::from_unordered(gen.gaussian(), gen.gaussian());
            result.margin_db = random_double();
            result.passed = gen.uniform() < 0.5;
            report.limits.push_back(std::move(result));
        }

        const auto die = gen.uniform_int(std::uint64_t{1} << 30);
        const auto restored = store::report_from_record(store::to_record(report, die));
        EXPECT_EQ(restored.die, die);
        expect_report_bit_equal(restored.report, report);
    }
}

} // namespace
