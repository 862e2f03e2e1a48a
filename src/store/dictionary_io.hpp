// Binary fault-dictionary files: a two-frame store whose second frame is
// one contiguous f64 matrix, laid out for mmap loading.
//
//   file_header
//   frame[dictionary_header]  space component names, healthy signature,
//                             per-trajectory (kind, point count), padded
//                             so the next frame's payload is 8-aligned
//   frame[dictionary_matrix]  row-major doubles: one row per trajectory
//                             point, row = severity, signature[dims];
//                             trajectories concatenated in order
//
// write_dictionary/read_dictionary are the copying round trip (exposed on
// fault_dictionary as write_binary/read_binary).  mapped_dictionary
// validates the same file once, then serves classifier-sized matrices as
// spans straight out of the page cache -- no parse, no copy, safe to share
// read-only across processes.  Both loaders reject a header whose
// component names are not the signature space's canonical order, since
// signatures are stored by position.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "diag/fault_dictionary.hpp"

namespace bistna::store {

void write_dictionary(const diag::fault_dictionary& dictionary, const std::string& path);
diag::fault_dictionary read_dictionary(const std::string& path);

/// Zero-copy view of a binary dictionary file.  Construction maps the
/// file read-only, verifies both frame CRCs and the shape metadata, and
/// resolves the matrix pointer; afterwards every accessor is O(1) into
/// the mapping.  Move-only; the mapping lives as long as the object.
class mapped_dictionary {
public:
    explicit mapped_dictionary(const std::string& path);
    ~mapped_dictionary();

    mapped_dictionary(mapped_dictionary&& other) noexcept;
    mapped_dictionary& operator=(mapped_dictionary&& other) noexcept;
    mapped_dictionary(const mapped_dictionary&) = delete;
    mapped_dictionary& operator=(const mapped_dictionary&) = delete;

    const diag::signature_space& space() const noexcept { return space_; }
    std::size_t dimensions() const noexcept { return dims_; }
    /// Empty when the dictionary recorded no healthy signature.
    std::span<const double> healthy() const noexcept { return healthy_; }

    std::size_t trajectory_count() const noexcept { return kinds_.size(); }
    diag::fault_kind kind(std::size_t trajectory) const;
    std::size_t points(std::size_t trajectory) const;

    /// All rows of all trajectories, straight out of the mapping
    /// (row-major, stride 1 + dimensions()).
    std::span<const double> matrix() const noexcept;
    std::size_t rows() const noexcept { return total_points_; }
    /// One trajectory point's row: [severity, signature...].
    std::span<const double> row(std::size_t trajectory, std::size_t point) const;

    /// Deep copy back into the ordinary in-memory struct (bit-identical
    /// to what read_dictionary returns).
    diag::fault_dictionary materialize() const;

private:
    void unmap() noexcept;

    void* map_ = nullptr;
    std::size_t map_size_ = 0;
    diag::signature_space space_;
    std::size_t dims_ = 0;
    std::vector<double> healthy_;
    std::vector<diag::fault_kind> kinds_;
    std::vector<std::size_t> point_counts_;
    std::vector<std::size_t> row_offsets_; ///< first row index per trajectory
    const double* matrix_ = nullptr;
    std::size_t total_points_ = 0;
};

} // namespace bistna::store
