// The one parser of the frame layout (see format.hpp), and the streaming
// writer/reader built on it.
//
// frame_decoder turns a byte stream into frames: record_reader feeds it a
// file, the screening service feeds it socket reads.  record_writer
// appends frames to an open file as results stream off a job_handle;
// record_reader walks a file frame by frame, verifying every CRC, and
// throws a typed serialization_error (with the byte offset) the moment it
// meets a torn or bit-flipped frame -- a corrupt store is never silently
// accepted.  The append-only lot_store builds on both.
#pragma once

#include <cstdint>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "store/format.hpp"

namespace bistna::store {

/// Encode one frame (header + payload + CRC) into a byte buffer -- the
/// unit record_writer appends and the shard wire format streams.
std::vector<std::uint8_t> encode_frame(record_type type,
                                       std::span<const std::uint8_t> payload);

/// Incremental frame decoder over a byte stream: feed() raw bytes in any
/// split, then pull complete frames with next().  Framing damage throws
/// serialization_error carrying the absolute stream offset of the first
/// offending byte, wherever the stream was split:
///   - a length above the cap: the length field (before any buffering);
///   - a CRC mismatch: the frame start;
///   - input that ends inside a frame (finish()): the frame start when
///     the frame header is torn, the length field when the declared
///     payload runs past the end of input.
class frame_decoder {
public:
    /// `first_offset` is the stream offset of the first byte fed (a store
    /// file's frames start after its 16-byte header).
    explicit frame_decoder(std::uint32_t max_payload = max_frame_payload,
                           std::uint64_t first_offset = 0)
        : max_payload_(max_payload), consumed_(first_offset) {}

    void feed(std::span<const std::uint8_t> bytes);

    /// The next complete frame, or nullopt until more bytes arrive.
    std::optional<record> next();

    /// End of input, called once next() has returned nullopt: throws
    /// serialization_error when part of a frame is still buffered.
    void finish() const;

    /// Absolute stream offset of the next undecoded byte (the end of the
    /// last frame next() returned).
    std::uint64_t offset() const noexcept { return consumed_; }
    std::size_t buffered() const noexcept { return buffer_.size() - head_; }

private:
    std::uint32_t max_payload_;
    std::vector<std::uint8_t> buffer_;
    std::size_t head_ = 0;       ///< first undecoded byte within buffer_
    std::uint64_t consumed_ = 0; ///< absolute offset of buffer_[head_]
};

class record_writer {
public:
    /// Opens `path` for writing.  `append` keeps existing bytes (the
    /// caller -- normally lot_store -- is responsible for having validated
    /// them); otherwise the file is truncated.  A fresh/empty file gets
    /// the 16-byte store header.  Throws configuration_error on I/O
    /// failure.
    explicit record_writer(const std::string& path, bool append = false);

    void append(const record& r) { append(r.type, r.payload); }
    void append(record_type type, std::span<const std::uint8_t> payload);

    void flush();

    /// Total file size in bytes after everything appended so far.
    std::uint64_t bytes_written() const noexcept { return offset_; }
    std::uint64_t records_written() const noexcept { return records_; }
    const std::string& path() const noexcept { return path_; }

private:
    std::string path_;
    std::ofstream out_;
    std::uint64_t offset_ = 0;
    std::uint64_t records_ = 0;
};

class record_reader {
public:
    /// Opens `path` and validates the store header.  Throws
    /// configuration_error when the file cannot be opened and
    /// serialization_error when the header is malformed (zero-length
    /// file, wrong magic/version/endianness, header CRC mismatch).
    explicit record_reader(const std::string& path);

    /// The next frame, or nullopt at clean end-of-file.  Throws
    /// serialization_error with an absolute file offset (the rules of
    /// frame_decoder) on a truncated frame, an implausible length, or a
    /// CRC mismatch.  Memory stays bounded by one read chunk plus one
    /// frame, whatever the file size.
    std::optional<record> next();

    /// Offset of the next unread byte (after the last cleanly read frame).
    std::uint64_t offset() const noexcept { return decoder_.offset(); }
    /// File offset of the payload of the frame next() last returned --
    /// the base for payload decoders' error offsets.
    std::uint64_t payload_offset() const noexcept { return payload_offset_; }
    std::uint64_t records_read() const noexcept { return records_; }
    const std::string& path() const noexcept { return path_; }

    /// Read every frame of `path` strictly (any corruption throws).
    static std::vector<record> read_all(const std::string& path);

private:
    std::string path_;
    std::ifstream in_;
    frame_decoder decoder_{max_frame_payload, file_header_size};
    std::uint64_t payload_offset_ = 0;
    std::uint64_t records_ = 0;
};

} // namespace bistna::store
