// fault_dictionary's file form (write_binary / read_binary, declared in
// diag/fault_dictionary.hpp): a two-frame store whose second frame is one
// contiguous f64 matrix.
//
//   file_header
//   frame[dictionary_header]  space component names, healthy signature,
//                             per-trajectory (kind, point count), then a
//                             zero pad
//   frame[dictionary_matrix]  row count u32, pad u32, then row-major
//                             doubles: one row per trajectory point,
//                             row = severity, signature[dims];
//                             trajectories concatenated in order
//
// The header's pad puts the matrix doubles at an 8-aligned file offset;
// it is part of format version 1, so it stays.  Nothing may follow the
// matrix frame.  The loader rejects a header whose component names are
// not the signature space's canonical order, since signatures are stored
// by position.
#include <string>
#include <utility>
#include <vector>

#include "diag/fault_dictionary.hpp"
#include "diag/fault_model.hpp"
#include "store/record_io.hpp"
#include "store/records.hpp"

namespace bistna::store {

namespace {

/// Shape metadata decoded from a dictionary_header payload.
struct dictionary_meta {
    diag::signature_space space;
    std::vector<double> healthy;
    std::vector<diag::fault_kind> kinds;
    std::vector<std::size_t> point_counts;
    std::size_t total_points = 0;
};

dictionary_meta parse_meta(std::span<const std::uint8_t> payload,
                           std::uint64_t payload_offset) {
    byte_reader reader(payload, payload_offset);
    dictionary_meta meta;
    const std::uint32_t components = reader.u32();
    std::vector<std::string> names;
    names.reserve(components);
    for (std::uint32_t c = 0; c < components; ++c) {
        names.push_back(reader.str());
    }
    meta.space = diag::signature_space::parse(names);
    // Signatures are stored by position, so a header listing (individually
    // valid) components out of canonical order would scramble every one.
    if (meta.space.component_names() != names) {
        throw serialization_error("dictionary components out of canonical order",
                                  payload_offset);
    }
    meta.healthy = reader.f64_vector();
    const std::size_t dims = meta.space.dimensions();
    if (!meta.healthy.empty() && meta.healthy.size() != dims) {
        throw serialization_error("dictionary healthy signature dimension mismatch",
                                  payload_offset);
    }
    const std::uint32_t trajectories = reader.u32();
    reader.require(static_cast<std::size_t>(trajectories) * 8, "trajectory shapes");
    meta.kinds.reserve(trajectories);
    meta.point_counts.reserve(trajectories);
    for (std::uint32_t t = 0; t < trajectories; ++t) {
        const std::int32_t kind = reader.i32();
        if (kind < 0 || kind >= static_cast<std::int32_t>(diag::fault_kind_count)) {
            throw serialization_error("dictionary trajectory fault kind out of range",
                                      reader.offset() - 4);
        }
        meta.kinds.push_back(static_cast<diag::fault_kind>(kind));
        const std::uint32_t points = reader.u32();
        meta.point_counts.push_back(points);
        meta.total_points += points;
    }
    return meta;
}

std::vector<std::uint8_t> encode_meta(const diag::fault_dictionary& dictionary) {
    byte_writer w;
    const auto names = dictionary.space.component_names();
    w.u32(static_cast<std::uint32_t>(names.size()));
    for (const auto& name : names) {
        w.str(name);
    }
    w.f64_span(dictionary.healthy);
    w.u32(static_cast<std::uint32_t>(dictionary.trajectories.size()));
    for (const auto& trajectory : dictionary.trajectories) {
        w.i32(static_cast<std::int32_t>(trajectory.kind));
        w.u32(static_cast<std::uint32_t>(trajectory.points.size()));
    }
    // Format version 1 pads so the matrix doubles land 8-aligned in the
    // file: they start at 16 (file header) + 8 (this frame's header) + L
    // (this payload) + 4 (crc) + 8 (matrix frame header) + 8 (row count +
    // pad), which is 8-aligned iff L % 8 == 4.
    while (w.size() % 8 != 4) {
        w.pad(1);
    }
    return w.take();
}

/// The matrix payload: row count, explicit alignment pad, then the rows.
std::vector<std::uint8_t> encode_matrix(const diag::fault_dictionary& dictionary,
                                        std::size_t dims) {
    byte_writer w;
    std::size_t rows = 0;
    for (const auto& trajectory : dictionary.trajectories) {
        rows += trajectory.points.size();
    }
    w.u32(static_cast<std::uint32_t>(rows));
    w.u32(0);
    for (const auto& trajectory : dictionary.trajectories) {
        for (const auto& point : trajectory.points) {
            BISTNA_EXPECTS(point.signature.size() == dims,
                           "dictionary signature does not match its space");
            w.f64(point.severity);
            w.bytes(point.signature.data(), dims * sizeof(double));
        }
    }
    return w.take();
}

} // namespace

} // namespace bistna::store

namespace bistna::diag {

void fault_dictionary::write_binary(const std::string& path) const {
    store::record_writer writer(path);
    writer.append(store::record_type::dictionary_header, store::encode_meta(*this));
    writer.append(store::record_type::dictionary_matrix,
                  store::encode_matrix(*this, space.dimensions()));
    writer.flush();
}

fault_dictionary fault_dictionary::read_binary(const std::string& path) {
    store::record_reader reader(path);
    auto meta_record = reader.next();
    if (!meta_record) {
        throw serialization_error("dictionary file has no records", reader.offset());
    }
    store::expect_type(*meta_record, store::record_type::dictionary_header,
                       reader.payload_offset());
    const auto meta = store::parse_meta(meta_record->payload, reader.payload_offset());

    auto matrix_record = reader.next();
    if (!matrix_record) {
        throw serialization_error("dictionary file has no matrix record", reader.offset());
    }
    const std::uint64_t matrix_offset = reader.payload_offset();
    store::expect_type(*matrix_record, store::record_type::dictionary_matrix,
                       matrix_offset);

    const std::size_t dims = meta.space.dimensions();
    const std::size_t stride = 1 + dims;
    store::byte_reader matrix(matrix_record->payload, matrix_offset);
    const std::uint32_t rows = matrix.u32();
    matrix.u32(); // alignment pad
    if (rows != meta.total_points) {
        throw serialization_error("dictionary matrix row count disagrees with header",
                                  matrix_offset);
    }
    matrix.require(static_cast<std::size_t>(rows) * stride * sizeof(double),
                   "dictionary matrix rows");

    // Nothing may follow the matrix: a torn or spliced tail throws inside
    // next() at the same offset.
    const std::uint64_t end = reader.offset();
    if (reader.next()) {
        throw serialization_error("trailing record after dictionary matrix", end);
    }

    fault_dictionary dictionary;
    dictionary.space = meta.space;
    dictionary.healthy = meta.healthy;
    dictionary.trajectories.reserve(meta.kinds.size());
    for (std::size_t t = 0; t < meta.kinds.size(); ++t) {
        fault_trajectory trajectory;
        trajectory.kind = meta.kinds[t];
        trajectory.points.reserve(meta.point_counts[t]);
        for (std::size_t p = 0; p < meta.point_counts[t]; ++p) {
            trajectory_point point;
            point.severity = matrix.f64();
            point.signature.resize(dims);
            for (std::size_t d = 0; d < dims; ++d) {
                point.signature[d] = matrix.f64();
            }
            trajectory.points.push_back(std::move(point));
        }
        dictionary.trajectories.push_back(std::move(trajectory));
    }
    return dictionary;
}

} // namespace bistna::diag
