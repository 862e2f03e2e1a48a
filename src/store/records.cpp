#include "store/records.hpp"

namespace bistna::store {

namespace {

void put_interval(byte_writer& w, const interval& iv) {
    w.f64(iv.lo());
    w.f64(iv.hi());
}

interval get_interval(byte_reader& r) {
    const double lo = r.f64();
    const double hi = r.f64();
    // A CRC-valid but semantically inverted interval must still fail as a
    // serialization problem, not as a precondition_error from deep inside
    // the interval class.
    if (lo > hi) {
        throw serialization_error("inverted interval bounds in record", r.offset() - 16);
    }
    return interval(lo, hi);
}

} // namespace

void expect_type(const record& r, record_type expected, std::uint64_t offset) {
    if (r.type != expected) {
        throw serialization_error("unexpected record type " +
                                      std::to_string(static_cast<unsigned>(r.type)) +
                                      " (wanted " +
                                      std::to_string(static_cast<unsigned>(expected)) + ")",
                                  offset);
    }
}

// --- screening reports ----------------------------------------------------

record to_record(const core::screening_report& report, std::uint64_t die) {
    byte_writer w;
    w.u64(die);
    w.boolean(report.passed);
    w.boolean(report.self_test_passed);
    w.boolean(report.distortion_measured);
    w.u8(0); // pad: keeps the doubles below 8-aligned within the payload
    w.u32(static_cast<std::uint32_t>(report.limits.size()));
    w.f64(report.stimulus_volts);
    w.f64(report.stimulus_phase_deg);
    w.f64(report.offset_rate);
    w.f64(report.thd_db);
    w.f64(report.thd_f_hz);
    for (const auto& result : report.limits) {
        w.u64(result.limit_index);
        w.f64(result.limit.f_hz);
        w.f64(result.limit.gain_db_min);
        w.f64(result.limit.gain_db_max);
        w.f64(result.measured_db);
        put_interval(w, result.measured_bounds_db);
        w.f64(result.phase_deg);
        put_interval(w, result.phase_deg_bounds);
        w.f64(result.margin_db);
        w.boolean(result.passed);
        w.str(result.limit.name);
    }
    return record{record_type::screening_report, w.take()};
}

stored_report report_from_record(const record& r, std::uint64_t payload_offset) {
    expect_type(r, record_type::screening_report, payload_offset);
    byte_reader reader(r.payload, payload_offset);
    stored_report out;
    out.die = reader.u64();
    out.report.passed = reader.boolean();
    out.report.self_test_passed = reader.boolean();
    out.report.distortion_measured = reader.boolean();
    reader.u8();
    const std::uint32_t limit_count = reader.u32();
    out.report.stimulus_volts = reader.f64();
    out.report.stimulus_phase_deg = reader.f64();
    out.report.offset_rate = reader.f64();
    out.report.thd_db = reader.f64();
    out.report.thd_f_hz = reader.f64();
    // Each limit needs at least its fixed-width fields; checking up front
    // turns a lying count into one typed error instead of a loop of
    // underruns.
    reader.require(static_cast<std::size_t>(limit_count) * (8 + 10 * 8 + 1 + 4),
                   "limit results");
    out.report.limits.reserve(limit_count);
    for (std::uint32_t j = 0; j < limit_count; ++j) {
        core::limit_result result;
        result.limit_index = reader.u64();
        result.limit.f_hz = reader.f64();
        result.limit.gain_db_min = reader.f64();
        result.limit.gain_db_max = reader.f64();
        result.measured_db = reader.f64();
        result.measured_bounds_db = get_interval(reader);
        result.phase_deg = reader.f64();
        result.phase_deg_bounds = get_interval(reader);
        result.margin_db = reader.f64();
        result.passed = reader.boolean();
        result.limit.name = reader.str();
        out.report.limits.push_back(std::move(result));
    }
    return out;
}

// --- acquisition results --------------------------------------------------

record to_record(const core::sweep_engine::acquisition_result& result,
                 std::uint64_t item) {
    byte_writer w;
    w.u64(item);
    w.f64(result.calibration.amplitude.volts);
    put_interval(w, result.calibration.amplitude.bounds_volts);
    w.f64(result.calibration.amplitude.dbfs);
    put_interval(w, result.calibration.amplitude.bounds_dbfs);
    w.u64(result.calibration.amplitude.harmonic_k);
    w.f64(result.calibration.phase.radians);
    put_interval(w, result.calibration.phase.bounds_radians);
    w.u64(result.calibration.phase.harmonic_k);
    w.f64(result.offset_rate);
    w.boolean(result.has_thd);
    w.f64(result.thd_db);
    w.u32(static_cast<std::uint32_t>(result.points.size()));
    for (const auto& point : result.points) {
        w.f64(point.f_wave.value);
        w.f64(point.gain_db);
        put_interval(w, point.gain_db_bounds);
        w.f64(point.phase_deg);
        put_interval(w, point.phase_deg_bounds);
        w.f64(point.ideal_gain_db);
        w.f64(point.ideal_phase_deg);
    }
    return record{record_type::acquisition_result, w.take()};
}

stored_acquisition acquisition_from_record(const record& r, std::uint64_t payload_offset) {
    expect_type(r, record_type::acquisition_result, payload_offset);
    byte_reader reader(r.payload, payload_offset);
    stored_acquisition out;
    out.item = reader.u64();
    auto& result = out.result;
    result.calibration.amplitude.volts = reader.f64();
    result.calibration.amplitude.bounds_volts = get_interval(reader);
    result.calibration.amplitude.dbfs = reader.f64();
    result.calibration.amplitude.bounds_dbfs = get_interval(reader);
    result.calibration.amplitude.harmonic_k = reader.u64();
    result.calibration.phase.radians = reader.f64();
    result.calibration.phase.bounds_radians = get_interval(reader);
    result.calibration.phase.harmonic_k = reader.u64();
    result.offset_rate = reader.f64();
    result.has_thd = reader.boolean();
    result.thd_db = reader.f64();
    const std::uint32_t point_count = reader.u32();
    reader.require(static_cast<std::size_t>(point_count) * 9 * 8, "frequency points");
    result.points.reserve(point_count);
    for (std::uint32_t i = 0; i < point_count; ++i) {
        core::frequency_point point;
        point.f_wave = hertz{reader.f64()};
        point.gain_db = reader.f64();
        point.gain_db_bounds = get_interval(reader);
        point.phase_deg = reader.f64();
        point.phase_deg_bounds = get_interval(reader);
        point.ideal_gain_db = reader.f64();
        point.ideal_phase_deg = reader.f64();
        result.points.push_back(point);
    }
    return out;
}

} // namespace bistna::store
