// Every way a store file can rot -- torn writes, flipped bits, foreign
// files -- must surface as a typed serialization_error naming the byte
// offset of the damage.  A corrupt store is never silently read back.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/screening.hpp"
#include "store/format.hpp"
#include "store/lot_store.hpp"
#include "store/record_io.hpp"
#include "store/records.hpp"

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

std::vector<std::uint8_t> slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                     std::istreambuf_iterator<char>());
}

void spit(const std::string& path, const std::vector<std::uint8_t>& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

core::screening_report small_report() {
    core::screening_report report;
    report.passed = true;
    report.self_test_passed = true;
    report.stimulus_volts = 0.3;
    core::limit_result result;
    result.limit.name = "lp";
    result.measured_db = -1.0;
    report.limits.push_back(result);
    return report;
}

/// A valid two-record store plus the frame boundaries inside it.
struct valid_store {
    std::vector<std::uint8_t> bytes;
    std::uint64_t frame0 = 0; ///< offset of the first frame
    std::uint64_t frame1 = 0; ///< offset of the second frame
};

valid_store build_valid_store(const std::string& path) {
    valid_store built;
    store::record_writer writer(path);
    built.frame0 = writer.bytes_written();
    EXPECT_EQ(built.frame0, store::file_header_size);
    writer.append(store::to_record(small_report(), 0));
    built.frame1 = writer.bytes_written();
    writer.append(store::to_record(small_report(), 1));
    writer.flush();
    built.bytes = slurp(path);
    EXPECT_EQ(built.bytes.size(), writer.bytes_written());
    return built;
}

/// Asserts that reading `path` throws serialization_error at exactly
/// `offset`, and that the what() string names that offset.  When the
/// damage is past the file header, the stream decoder must agree: fed the
/// frames one byte at a time under the store's cap, then told the input
/// ended, it names the same offset.
void expect_rejected_at(const std::string& path, std::uint64_t offset) {
    try {
        (void)store::record_reader::read_all(path);
        ADD_FAILURE() << "corrupt store was accepted";
    } catch (const serialization_error& error) {
        EXPECT_EQ(error.byte_offset(), offset) << error.what();
        EXPECT_NE(std::string(error.what()).find("byte offset " + std::to_string(offset)),
                  std::string::npos)
            << error.what();
    }
    if (offset < store::file_header_size) {
        return; // a damaged file header: there are no frames to decode
    }

    const auto bytes = slurp(path);
    store::frame_decoder decoder(store::max_frame_payload, store::file_header_size);
    try {
        for (std::size_t i = store::file_header_size; i < bytes.size(); ++i) {
            decoder.feed(std::span<const std::uint8_t>(&bytes[i], 1));
            while (decoder.next()) {
            }
        }
        decoder.finish();
        ADD_FAILURE() << "frame decoder accepted the corrupt frames";
    } catch (const serialization_error& error) {
        EXPECT_EQ(error.byte_offset(), offset) << "decoder: " << error.what();
    }
}

TEST(CorruptStore, ZeroLengthFileIsRejected) {
    temp_file file("bistna_corrupt_empty.bin");
    spit(file.path(), {});
    expect_rejected_at(file.path(), 0);
}

TEST(CorruptStore, FileShorterThanHeaderIsRejected) {
    temp_file file("bistna_corrupt_short.bin");
    spit(file.path(), {0x42, 0x53, 0x54, 0x52, 0x01, 0x00, 0x02});
    expect_rejected_at(file.path(), 7);
}

TEST(CorruptStore, WrongMagicIsRejected) {
    temp_file file("bistna_corrupt_magic.bin");
    auto built = build_valid_store(file.path());
    built.bytes[0] ^= 0xFF; // no longer "BSTR"
    spit(file.path(), built.bytes);
    expect_rejected_at(file.path(), 0);
}

TEST(CorruptStore, WrongVersionIsRejected) {
    temp_file file("bistna_corrupt_version.bin");
    auto built = build_valid_store(file.path());
    built.bytes[4] = 0x7F; // future format version
    spit(file.path(), built.bytes);
    expect_rejected_at(file.path(), 4);
}

TEST(CorruptStore, WrongEndiannessIsRejected) {
    temp_file file("bistna_corrupt_endian.bin");
    auto built = build_valid_store(file.path());
    std::swap(built.bytes[6], built.bytes[7]); // byte-swapped endian tag
    spit(file.path(), built.bytes);
    expect_rejected_at(file.path(), 6);
}

TEST(CorruptStore, HeaderCrcMismatchIsRejected) {
    temp_file file("bistna_corrupt_hdrcrc.bin");
    auto built = build_valid_store(file.path());
    built.bytes[8] ^= 0x01; // reserved field no longer matches the CRC
    spit(file.path(), built.bytes);
    expect_rejected_at(file.path(), 12);
}

TEST(CorruptStore, TruncatedFrameHeaderIsRejected) {
    temp_file file("bistna_corrupt_tornhdr.bin");
    auto built = build_valid_store(file.path());
    // Kill the process three bytes into the second frame's header.
    built.bytes.resize(built.frame1 + 3);
    spit(file.path(), built.bytes);
    expect_rejected_at(file.path(), built.frame1);
}

TEST(CorruptStore, TruncatedFinalFramePayloadIsRejected) {
    temp_file file("bistna_corrupt_tornpayload.bin");
    auto built = build_valid_store(file.path());
    // Kill the process mid-payload: the declared length now runs past the
    // end of the file, which the reader reports against the length field.
    built.bytes.resize(built.frame1 + store::frame_header_size + 5);
    spit(file.path(), built.bytes);
    expect_rejected_at(file.path(), built.frame1 + 4);
}

TEST(CorruptStore, FlippedPayloadByteFailsFrameCrc) {
    temp_file file("bistna_corrupt_bitflip.bin");
    auto built = build_valid_store(file.path());
    built.bytes[built.frame1 + store::frame_header_size + 2] ^= 0x10;
    spit(file.path(), built.bytes);
    expect_rejected_at(file.path(), built.frame1);
}

TEST(CorruptStore, FlippedLengthByteIsRejectedBeforeAllocation) {
    temp_file file("bistna_corrupt_length.bin");
    auto built = build_valid_store(file.path());
    built.bytes[built.frame0 + 7] = 0x7F; // length now ~2 GiB
    spit(file.path(), built.bytes);
    expect_rejected_at(file.path(), built.frame0 + 4);
}

TEST(CorruptStore, ValidPrefixIsReadableUpToTheDamage) {
    temp_file file("bistna_corrupt_prefix.bin");
    auto built = build_valid_store(file.path());
    built.bytes[built.frame1 + store::frame_header_size + 1] ^= 0x01;
    spit(file.path(), built.bytes);

    store::record_reader reader(file.path());
    auto first = reader.next(); // frame 0 is intact
    ASSERT_TRUE(first.has_value());
    const auto restored = store::report_from_record(*first);
    EXPECT_EQ(restored.die, 0u);
    EXPECT_THROW((void)reader.next(), serialization_error);
}

TEST(CorruptStore, StrictScanRefusesForeignFiles) {
    temp_file file("bistna_corrupt_foreign.bin");
    spit(file.path(), {'d', 'i', 'e', ',', 'p', 'a', 's', 's', 'e', 'd', '\n',
                       '0', ',', '1', '\n', '1', ',', '0', '\n'});
    EXPECT_THROW((void)store::lot_store::scan(file.path()), serialization_error);
}

TEST(CorruptStore, TruncatedRecordPayloadFieldsAreRejected) {
    // Frame-level CRC passes, but the payload lies about its own counts:
    // a limit_count larger than the remaining bytes must be caught by the
    // converter, not crash it.
    auto record = store::to_record(small_report(), 7);
    record.payload.resize(16); // chop off everything after the die + flags
    EXPECT_THROW((void)store::report_from_record(record), serialization_error);

    auto truncated = store::to_record(small_report(), 7);
    truncated.payload.resize(truncated.payload.size() - 3);
    EXPECT_THROW((void)store::report_from_record(truncated), serialization_error);
}

} // namespace
