#include "store/record_io.hpp"

#include <array>
#include <cstring>
#include <filesystem>

#include "common/error.hpp"
#include "store/crc32.hpp"
#include "telemetry/metrics.hpp"

namespace bistna::store {

namespace {

/// Bytes record_reader reads per refill of its decoder.
constexpr std::size_t read_chunk = 64 * 1024;

telemetry::metric_id frames_counter() {
    static const telemetry::metric_id id =
        telemetry::counter_id("store.frames");
    return id;
}

telemetry::metric_id bytes_counter() {
    static const telemetry::metric_id id = telemetry::counter_id("store.bytes");
    return id;
}

telemetry::metric_id flush_histogram() {
    static const telemetry::metric_id id =
        telemetry::histogram_id("store.flush_ns");
    return id;
}

} // namespace

std::vector<std::uint8_t> encode_frame(record_type type,
                                       std::span<const std::uint8_t> payload) {
    BISTNA_EXPECTS(payload.size() <= max_frame_payload, "record payload too large");
    std::vector<std::uint8_t> frame(frame_header_size + payload.size() +
                                    frame_trailer_size);
    const auto type_raw = static_cast<std::uint16_t>(type);
    const std::uint16_t flags = 0;
    const auto length = static_cast<std::uint32_t>(payload.size());
    std::memcpy(frame.data() + 0, &type_raw, 2);
    std::memcpy(frame.data() + 2, &flags, 2);
    std::memcpy(frame.data() + 4, &length, 4);
    if (!payload.empty()) { // an empty span's data() may be null
        std::memcpy(frame.data() + frame_header_size, payload.data(), payload.size());
    }
    const std::uint32_t crc = crc32(frame.data(), frame_header_size + payload.size());
    std::memcpy(frame.data() + frame_header_size + payload.size(), &crc, 4);
    return frame;
}

record_writer::record_writer(const std::string& path, bool append) : path_(path) {
    std::uint64_t existing = 0;
    if (append) {
        std::error_code ec;
        const auto size = std::filesystem::file_size(path, ec);
        existing = ec ? 0 : size;
    }
    const auto mode =
        std::ios::binary | (append ? std::ios::app : std::ios::trunc | std::ios::out);
    out_.open(path, mode);
    if (!out_) {
        throw configuration_error("record_writer: cannot open '" + path + "' for writing");
    }
    offset_ = existing;
    if (offset_ == 0) {
        const auto header = encode_file_header();
        out_.write(reinterpret_cast<const char*>(header.data()),
                   static_cast<std::streamsize>(header.size()));
        offset_ = header.size();
    }
}

void record_writer::append(record_type type, std::span<const std::uint8_t> payload) {
    const auto frame = encode_frame(type, payload);
    out_.write(reinterpret_cast<const char*>(frame.data()),
               static_cast<std::streamsize>(frame.size()));
    if (!out_) {
        throw configuration_error("record_writer: write to '" + path_ + "' failed");
    }
    offset_ += frame.size();
    ++records_;
    telemetry::counter_add(frames_counter());
    telemetry::counter_add(bytes_counter(), frame.size());
}

void record_writer::flush() {
    // Clock reads only when someone is listening; the flush itself is the
    // syscall-bound part of the store hot path.
    const bool instrument = telemetry::attached();
    const std::uint64_t start_ns = instrument ? telemetry::now_ns() : 0;
    out_.flush();
    if (instrument) {
        telemetry::histogram_record(flush_histogram(),
                                    telemetry::now_ns() - start_ns);
    }
    if (!out_) {
        throw configuration_error("record_writer: flush of '" + path_ + "' failed");
    }
}

void frame_decoder::feed(std::span<const std::uint8_t> bytes) {
    // Compact lazily: once the decoded prefix dominates the buffer, slide
    // the undecoded tail down so memory stays bounded by one frame.
    if (head_ > 4096 && head_ > buffer_.size() / 2) {
        buffer_.erase(buffer_.begin(), buffer_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
    }
    buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

std::optional<record> frame_decoder::next() {
    const std::size_t available = buffered();
    if (available < frame_header_size) {
        return std::nullopt;
    }
    const std::uint8_t* frame = buffer_.data() + head_;
    std::uint16_t type_raw = 0;
    std::uint32_t length = 0;
    std::memcpy(&type_raw, frame + 0, 2);
    std::memcpy(&length, frame + 4, 4);
    if (length > max_payload_) {
        // A flipped length byte (or a hostile peer) must not make the
        // decoder buffer up to 4 GiB waiting for the rest of the frame.
        throw serialization_error("implausible frame length " + std::to_string(length) +
                                      " (cap " + std::to_string(max_payload_) + ")",
                                  consumed_ + 4);
    }
    const std::size_t total = frame_header_size + length + frame_trailer_size;
    if (available < total) {
        return std::nullopt;
    }
    std::uint32_t stored_crc = 0;
    std::memcpy(&stored_crc, frame + frame_header_size + length, 4);
    if (crc32(frame, frame_header_size + length) != stored_crc) {
        throw serialization_error("frame CRC mismatch (corrupt record)", consumed_);
    }
    record r;
    r.type = static_cast<record_type>(type_raw);
    r.payload.assign(frame + frame_header_size, frame + frame_header_size + length);
    head_ += total;
    consumed_ += total;
    return r;
}

void frame_decoder::finish() const {
    const std::size_t available = buffered();
    if (available == 0) {
        return;
    }
    if (available < frame_header_size) {
        throw serialization_error("truncated frame header (input ended mid-frame)",
                                  consumed_);
    }
    std::uint32_t length = 0;
    std::memcpy(&length, buffer_.data() + head_ + 4, 4);
    throw serialization_error("truncated frame: length " + std::to_string(length) +
                                  " runs past the end of input",
                              consumed_ + 4);
}

record_reader::record_reader(const std::string& path)
    : path_(path), in_(path, std::ios::binary) {
    if (!in_) {
        throw configuration_error("record_reader: cannot open '" + path + "' for reading");
    }
    std::error_code ec;
    const auto size = std::filesystem::file_size(path, ec);

    std::array<std::uint8_t, file_header_size> header{};
    in_.read(reinterpret_cast<char*>(header.data()),
             static_cast<std::streamsize>(header.size()));
    const auto got = static_cast<std::size_t>(in_.gcount());
    validate_file_header(std::span<const std::uint8_t>(header.data(), got), ec ? 0 : size);
}

std::optional<record> record_reader::next() {
    const std::uint64_t frame_offset = decoder_.offset();
    for (;;) {
        if (auto r = decoder_.next()) {
            payload_offset_ = frame_offset + frame_header_size;
            ++records_;
            return r;
        }
        std::array<char, read_chunk> chunk;
        in_.read(chunk.data(), static_cast<std::streamsize>(chunk.size()));
        const auto got = static_cast<std::size_t>(in_.gcount());
        if (got == 0) {
            decoder_.finish();
            return std::nullopt; // clean end of file
        }
        decoder_.feed(std::span<const std::uint8_t>(
            reinterpret_cast<const std::uint8_t*>(chunk.data()), got));
    }
}

std::vector<record> record_reader::read_all(const std::string& path) {
    record_reader reader(path);
    std::vector<record> records;
    while (auto r = reader.next()) {
        records.push_back(std::move(*r));
    }
    return records;
}

} // namespace bistna::store
