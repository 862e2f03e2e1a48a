// Binary fault-dictionary files: bit-exact round trip, trajectory
// boundaries, and rejection of corrupt, malformed or over-long files by
// read_binary, the one loader.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "diag/fault_dictionary.hpp"
#include "store/crc32.hpp"
#include "store/format.hpp"
#include "store/record_io.hpp"

namespace {

using namespace bistna;

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

diag::signature_space test_space() {
    diag::signature_space space;
    space.frequencies_hz = {500.0, 1000.0};
    space.thd_max_harmonic = 3;
    space.thd_f_hz = 1000.0;
    return space;
}

/// A small dictionary with finite values only (safe for operator==).
diag::fault_dictionary finite_dictionary() {
    diag::fault_dictionary dictionary;
    dictionary.space = test_space();
    const auto dims = dictionary.space.dimensions();
    dictionary.healthy.assign(dims, 0.25);
    diag::fault_trajectory first;
    first.kind = diag::fault_kind::cap_unit_mismatch;
    for (int i = 0; i < 3; ++i) {
        diag::trajectory_point point;
        point.severity = 0.01 * (i + 1);
        point.signature.assign(dims, 0.1 * (i + 1));
        point.signature[0] = 0.3 + 1e-17 * i; // exercise shortest-repr digits
        first.points.push_back(point);
    }
    diag::fault_trajectory second;
    second.kind = diag::fault_kind::integrator_leak;
    for (int i = 0; i < 2; ++i) {
        diag::trajectory_point point;
        point.severity = 1e-4 * (i + 1);
        point.signature.assign(dims, -70.0 + i);
        second.points.push_back(point);
    }
    dictionary.trajectories.push_back(std::move(first));
    dictionary.trajectories.push_back(std::move(second));
    return dictionary;
}

TEST(DictionaryBinary, WriteReadRoundTrip) {
    temp_file file("bistna_dict_roundtrip.bin");
    const auto dictionary = finite_dictionary();
    dictionary.write_binary(file.path());
    const auto restored = diag::fault_dictionary::read_binary(file.path());
    EXPECT_EQ(restored, dictionary);

    // Format version 1 pads the header frame so the matrix doubles sit at
    // an 8-aligned file offset: file header, header frame, matrix frame
    // header, then the row count and its pad.
    std::ifstream in(file.path(), std::ios::binary);
    in.seekg(static_cast<std::streamoff>(store::file_header_size + 4));
    std::uint32_t header_length = 0;
    in.read(reinterpret_cast<char*>(&header_length), sizeof header_length);
    const std::uint64_t matrix_doubles = store::file_header_size +
                                         store::frame_header_size + header_length +
                                         store::frame_trailer_size +
                                         store::frame_header_size + 8;
    EXPECT_EQ(matrix_doubles % alignof(double), 0u);
}

TEST(DictionaryBinary, EmptyHealthySignatureSurvives) {
    temp_file file("bistna_dict_nohealthy.bin");
    auto dictionary = finite_dictionary();
    dictionary.healthy.clear();
    dictionary.write_binary(file.path());
    const auto restored = diag::fault_dictionary::read_binary(file.path());
    EXPECT_EQ(restored, dictionary);
    EXPECT_TRUE(restored.healthy.empty());
}

TEST(DictionaryBinary, NanPayloadsSurviveBitExactly) {
    temp_file file("bistna_dict_nan.bin");
    auto dictionary = finite_dictionary();
    const double awkward = std::bit_cast<double>(std::uint64_t{0x7FF8C0FFEE000001ull});
    dictionary.trajectories[0].points[1].signature[2] = awkward;
    dictionary.trajectories[1].points[0].severity =
        -std::numeric_limits<double>::infinity();
    dictionary.write_binary(file.path());

    const auto restored = diag::fault_dictionary::read_binary(file.path());
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  restored.trajectories[0].points[1].signature[2]),
              0x7FF8C0FFEE000001ull);
    EXPECT_TRUE(std::isinf(restored.trajectories[1].points[0].severity));
}

TEST(DictionaryBinary, TwoTrajectoriesOfTheSameKindSurviveTheRoundTrip) {
    // E.g. the two branches of a signed severity axis, stored as separate
    // polylines: adjacent trajectories of one kind must stay apart.
    temp_file file("bistna_dict_same_kind.bin");
    auto dictionary = finite_dictionary();
    dictionary.trajectories[1].kind = dictionary.trajectories[0].kind;
    dictionary.write_binary(file.path());

    const auto restored = diag::fault_dictionary::read_binary(file.path());
    EXPECT_EQ(restored, dictionary);
    ASSERT_EQ(restored.trajectories.size(), 2u);
    EXPECT_EQ(restored.trajectories[0].points.size(), 3u);
    EXPECT_EQ(restored.trajectories[1].points.size(), 2u);
}

/// Swap two equal-length component names in the header frame of the
/// dictionary file at `path`, and re-seal the frame's CRC, so only the
/// component order is wrong.
void swap_component_names(const std::string& path, const std::string& a,
                          const std::string& b) {
    ASSERT_EQ(a.size(), b.size());
    std::vector<char> bytes;
    {
        std::ifstream in(path, std::ios::binary);
        bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
    }
    const auto at_a = std::search(bytes.begin(), bytes.end(), a.begin(), a.end());
    const auto at_b = std::search(bytes.begin(), bytes.end(), b.begin(), b.end());
    ASSERT_NE(at_a, bytes.end());
    ASSERT_NE(at_b, bytes.end());
    std::swap_ranges(at_a, at_a + static_cast<std::ptrdiff_t>(a.size()), at_b);

    char* frame = bytes.data() + store::file_header_size;
    std::uint32_t length = 0;
    std::memcpy(&length, frame + 4, sizeof length);
    const std::uint32_t crc = store::crc32(frame, store::frame_header_size + length);
    std::memcpy(frame + store::frame_header_size + length, &crc, sizeof crc);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(DictionaryBinary, MalformedHeaderIsRejectedByBothLoaders) {
    // Signatures are stored by position: a header listing valid components
    // out of canonical order would scramble every signature (here the
    // offset rate would read back as gain@500), so it is rejected at the
    // header payload.
    temp_file reordered("bistna_dict_reordered.bin");
    finite_dictionary().write_binary(reordered.path());
    swap_component_names(reordered.path(), "offset_rate", "gain_db@500");
    const std::uint64_t header_payload = store::file_header_size + store::frame_header_size;
    try {
        (void)diag::fault_dictionary::read_binary(reordered.path());
        ADD_FAILURE() << "read_binary accepted out-of-order components";
    } catch (const serialization_error& e) {
        EXPECT_EQ(e.byte_offset(), header_payload);
    }

    // A fault kind outside the catalog (shipped files are untrusted input)
    // is rejected before any cast.
    for (const int kind : {-1, static_cast<int>(diag::fault_kind_count), 99}) {
        temp_file bad_kind("bistna_dict_bad_kind.bin");
        auto dictionary = finite_dictionary();
        dictionary.trajectories[1].kind = static_cast<diag::fault_kind>(kind);
        dictionary.write_binary(bad_kind.path());
        EXPECT_THROW((void)diag::fault_dictionary::read_binary(bad_kind.path()),
                     serialization_error)
            << kind;
    }
}

TEST(DictionaryBinary, CorruptMatrixIsRejectedByBothLoaders) {
    temp_file file("bistna_dict_corrupt.bin");
    finite_dictionary().write_binary(file.path());

    // Flip one byte near the end of the file (inside the matrix frame).
    std::fstream io(file.path(), std::ios::binary | std::ios::in | std::ios::out);
    io.seekg(0, std::ios::end);
    const auto size = static_cast<std::int64_t>(io.tellg());
    io.seekp(size - 9);
    char byte = 0;
    io.seekg(size - 9);
    io.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    io.seekp(size - 9);
    io.write(&byte, 1);
    io.close();

    EXPECT_THROW((void)diag::fault_dictionary::read_binary(file.path()),
                 serialization_error);
}

/// read_binary must reject `path` at exactly `offset`.
void expect_read_binary_rejects_at(const std::string& path, std::uint64_t offset) {
    try {
        (void)diag::fault_dictionary::read_binary(path);
        ADD_FAILURE() << "read_binary accepted bytes after the matrix";
    } catch (const serialization_error& e) {
        EXPECT_EQ(e.byte_offset(), offset) << e.what();
    }
}

TEST(DictionaryBinary, TrailingGarbageIsRejected) {
    // Nothing may follow the matrix frame: neither stray bytes nor a
    // well-formed, CRC-valid extra frame.  Both are reported at the first
    // byte after the matrix.
    temp_file garbage("bistna_dict_trailing.bin");
    finite_dictionary().write_binary(garbage.path());
    const auto matrix_end = std::filesystem::file_size(garbage.path());
    {
        std::ofstream out(garbage.path(), std::ios::binary | std::ios::app);
        out << "extra";
    }
    expect_read_binary_rejects_at(garbage.path(), matrix_end);

    temp_file extra_frame("bistna_dict_extra_frame.bin");
    finite_dictionary().write_binary(extra_frame.path());
    {
        const std::vector<std::uint8_t> payload = {1, 2, 3};
        const auto frame = store::encode_frame(store::record_type::dictionary_matrix, payload);
        std::ofstream out(extra_frame.path(), std::ios::binary | std::ios::app);
        out.write(reinterpret_cast<const char*>(frame.data()),
                  static_cast<std::streamsize>(frame.size()));
    }
    expect_read_binary_rejects_at(extra_frame.path(), matrix_end);
}

} // namespace
