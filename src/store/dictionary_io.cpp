#include "store/dictionary_io.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cstring>
#include <utility>

#include "diag/fault_model.hpp"
#include "store/crc32.hpp"
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
    // Pad so the NEXT frame's doubles land 8-aligned for the mmap path:
    // matrix doubles start at 16 (file header) + 8 (this frame's header)
    // + L (this payload) + 4 (crc) + 8 (matrix frame header) + 8 (row
    // count + pad), which is 8-aligned iff L % 8 == 4.
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

constexpr std::size_t matrix_prefix = 8; ///< row count u32 + pad u32

} // namespace

void write_dictionary(const diag::fault_dictionary& dictionary, const std::string& path) {
    record_writer writer(path);
    writer.append(record_type::dictionary_header, encode_meta(dictionary));
    writer.append(record_type::dictionary_matrix,
                  encode_matrix(dictionary, dictionary.space.dimensions()));
    writer.flush();
}

diag::fault_dictionary read_dictionary(const std::string& path) {
    record_reader reader(path);
    const std::uint64_t meta_offset = reader.offset() + frame_header_size;
    auto meta_record = reader.next();
    if (!meta_record) {
        throw serialization_error("dictionary file has no records", meta_offset);
    }
    expect_type(*meta_record, record_type::dictionary_header, meta_offset);
    const auto meta = parse_meta(meta_record->payload, meta_offset);

    const std::uint64_t matrix_offset = reader.offset() + frame_header_size;
    auto matrix_record = reader.next();
    if (!matrix_record) {
        throw serialization_error("dictionary file has no matrix record", matrix_offset);
    }
    expect_type(*matrix_record, record_type::dictionary_matrix, matrix_offset);

    const std::size_t dims = meta.space.dimensions();
    const std::size_t stride = 1 + dims;
    byte_reader matrix(matrix_record->payload, matrix_offset);
    const std::uint32_t rows = matrix.u32();
    matrix.u32(); // alignment pad
    if (rows != meta.total_points) {
        throw serialization_error("dictionary matrix row count disagrees with header",
                                  matrix_offset);
    }
    matrix.require(static_cast<std::size_t>(rows) * stride * sizeof(double),
                   "dictionary matrix rows");

    diag::fault_dictionary dictionary;
    dictionary.space = meta.space;
    dictionary.healthy = meta.healthy;
    dictionary.trajectories.reserve(meta.kinds.size());
    for (std::size_t t = 0; t < meta.kinds.size(); ++t) {
        diag::fault_trajectory trajectory;
        trajectory.kind = meta.kinds[t];
        trajectory.points.reserve(meta.point_counts[t]);
        for (std::size_t p = 0; p < meta.point_counts[t]; ++p) {
            diag::trajectory_point point;
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

mapped_dictionary::mapped_dictionary(const std::string& path) {
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) {
        throw configuration_error("mapped_dictionary: cannot open '" + path + "'");
    }
    struct ::stat st {};
    if (::fstat(fd, &st) != 0) {
        ::close(fd);
        throw configuration_error("mapped_dictionary: cannot stat '" + path + "'");
    }
    map_size_ = static_cast<std::size_t>(st.st_size);
    if (map_size_ == 0) {
        ::close(fd);
        throw serialization_error("zero-length store file (missing header)", 0);
    }
    map_ = ::mmap(nullptr, map_size_, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd);
    if (map_ == MAP_FAILED) {
        map_ = nullptr;
        throw configuration_error("mapped_dictionary: mmap of '" + path + "' failed");
    }

    try {
        const auto* base = static_cast<const std::uint8_t*>(map_);
        const std::span<const std::uint8_t> file(base, map_size_);
        validate_file_header(file.subspan(0, std::min(map_size_, file_header_size)),
                             map_size_);

        // Walk the two frames in place, verifying each CRC exactly like
        // the streaming reader would.
        std::size_t offset = file_header_size;
        const auto next_frame = [&](record_type expected)
            -> std::pair<std::span<const std::uint8_t>, std::uint64_t> {
            const std::uint64_t frame_offset = offset;
            if (map_size_ - offset < frame_header_size + frame_trailer_size) {
                throw serialization_error("truncated frame header (torn final frame)",
                                          frame_offset);
            }
            std::uint16_t type_raw = 0;
            std::uint32_t length = 0;
            std::memcpy(&type_raw, base + offset, 2);
            std::memcpy(&length, base + offset + 4, 4);
            if (length > max_frame_payload ||
                frame_offset + frame_header_size + length + frame_trailer_size >
                    map_size_) {
                throw serialization_error("implausible frame length " +
                                              std::to_string(length),
                                          frame_offset + 4);
            }
            std::uint32_t stored_crc = 0;
            std::memcpy(&stored_crc, base + offset + frame_header_size + length, 4);
            if (crc32(base + offset, frame_header_size + length) != stored_crc) {
                throw serialization_error("frame CRC mismatch (corrupt record)",
                                          frame_offset);
            }
            if (static_cast<record_type>(type_raw) != expected) {
                throw serialization_error(
                    "unexpected record type " + std::to_string(type_raw), frame_offset);
            }
            offset += frame_header_size + length + frame_trailer_size;
            return {file.subspan(frame_offset + frame_header_size, length),
                    frame_offset + frame_header_size};
        };

        const auto [meta_payload, meta_offset] =
            next_frame(record_type::dictionary_header);
        auto meta = parse_meta(meta_payload, meta_offset);
        space_ = std::move(meta.space);
        dims_ = space_.dimensions();
        healthy_ = std::move(meta.healthy);
        kinds_ = std::move(meta.kinds);
        point_counts_ = std::move(meta.point_counts);
        total_points_ = meta.total_points;
        row_offsets_.reserve(kinds_.size());
        std::size_t first_row = 0;
        for (const std::size_t count : point_counts_) {
            row_offsets_.push_back(first_row);
            first_row += count;
        }

        const auto [matrix_payload, matrix_offset] =
            next_frame(record_type::dictionary_matrix);
        byte_reader prefix(matrix_payload, matrix_offset);
        const std::uint32_t rows = prefix.u32();
        if (rows != total_points_) {
            throw serialization_error("dictionary matrix row count disagrees with header",
                                      matrix_offset);
        }
        const std::size_t stride = 1 + dims_;
        if (matrix_payload.size() < matrix_prefix + total_points_ * stride * 8) {
            throw serialization_error("dictionary matrix shorter than its row count",
                                      matrix_offset);
        }
        const auto* doubles = matrix_payload.data() + matrix_prefix;
        if (reinterpret_cast<std::uintptr_t>(doubles) % alignof(double) != 0) {
            throw serialization_error("dictionary matrix payload misaligned",
                                      matrix_offset + matrix_prefix);
        }
        matrix_ = reinterpret_cast<const double*>(doubles);

        if (offset != map_size_) {
            throw serialization_error("trailing bytes after dictionary matrix", offset);
        }
    } catch (...) {
        unmap();
        throw;
    }
}

mapped_dictionary::~mapped_dictionary() { unmap(); }

mapped_dictionary::mapped_dictionary(mapped_dictionary&& other) noexcept
    : map_(std::exchange(other.map_, nullptr)),
      map_size_(std::exchange(other.map_size_, 0)),
      space_(std::move(other.space_)), dims_(other.dims_),
      healthy_(std::move(other.healthy_)), kinds_(std::move(other.kinds_)),
      point_counts_(std::move(other.point_counts_)),
      row_offsets_(std::move(other.row_offsets_)),
      matrix_(std::exchange(other.matrix_, nullptr)),
      total_points_(std::exchange(other.total_points_, 0)) {}

mapped_dictionary& mapped_dictionary::operator=(mapped_dictionary&& other) noexcept {
    if (this != &other) {
        unmap();
        map_ = std::exchange(other.map_, nullptr);
        map_size_ = std::exchange(other.map_size_, 0);
        space_ = std::move(other.space_);
        dims_ = other.dims_;
        healthy_ = std::move(other.healthy_);
        kinds_ = std::move(other.kinds_);
        point_counts_ = std::move(other.point_counts_);
        row_offsets_ = std::move(other.row_offsets_);
        matrix_ = std::exchange(other.matrix_, nullptr);
        total_points_ = std::exchange(other.total_points_, 0);
    }
    return *this;
}

void mapped_dictionary::unmap() noexcept {
    if (map_ != nullptr) {
        ::munmap(map_, map_size_);
        map_ = nullptr;
        map_size_ = 0;
    }
}

diag::fault_kind mapped_dictionary::kind(std::size_t trajectory) const {
    BISTNA_EXPECTS(trajectory < kinds_.size(), "trajectory index out of range");
    return kinds_[trajectory];
}

std::size_t mapped_dictionary::points(std::size_t trajectory) const {
    BISTNA_EXPECTS(trajectory < point_counts_.size(), "trajectory index out of range");
    return point_counts_[trajectory];
}

std::span<const double> mapped_dictionary::matrix() const noexcept {
    return {matrix_, total_points_ * (1 + dims_)};
}

std::span<const double> mapped_dictionary::row(std::size_t trajectory,
                                               std::size_t point) const {
    BISTNA_EXPECTS(trajectory < kinds_.size(), "trajectory index out of range");
    BISTNA_EXPECTS(point < point_counts_[trajectory], "point index out of range");
    const std::size_t stride = 1 + dims_;
    return {matrix_ + (row_offsets_[trajectory] + point) * stride, stride};
}

diag::fault_dictionary mapped_dictionary::materialize() const {
    diag::fault_dictionary dictionary;
    dictionary.space = space_;
    dictionary.healthy.assign(healthy_.begin(), healthy_.end());
    dictionary.trajectories.reserve(kinds_.size());
    for (std::size_t t = 0; t < kinds_.size(); ++t) {
        diag::fault_trajectory trajectory;
        trajectory.kind = kinds_[t];
        trajectory.points.reserve(point_counts_[t]);
        for (std::size_t p = 0; p < point_counts_[t]; ++p) {
            const auto r = row(t, p);
            diag::trajectory_point point;
            point.severity = r[0];
            point.signature.assign(r.begin() + 1, r.end());
            trajectory.points.push_back(std::move(point));
        }
        dictionary.trajectories.push_back(std::move(trajectory));
    }
    return dictionary;
}

} // namespace bistna::store

// fault_dictionary's file form, declared on the struct in
// diag/fault_dictionary.hpp.
void bistna::diag::fault_dictionary::write_binary(const std::string& path) const {
    bistna::store::write_dictionary(*this, path);
}

bistna::diag::fault_dictionary
bistna::diag::fault_dictionary::read_binary(const std::string& path) {
    return bistna::store::read_dictionary(path);
}
