// The service wire protocol: typed encode/decode round trips, the shared
// manifest schema riding inside submit frames, and the incremental frame
// decoder's robustness contract -- byte-dribbled feeds reassemble exactly,
// while truncation, CRC damage, implausible lengths and input that ends
// mid-frame throw serialization_error carrying the absolute stream offset
// of the first offending byte.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "shard/manifest.hpp"
#include "store/format.hpp"
#include "svc/protocol.hpp"

namespace {

using namespace bistna;
using svc::frame_decoder;

shard::lot_manifest sample_manifest() {
    shard::lot_manifest m;
    m.workload = shard::workload_kind::screening;
    m.dice = 24;
    m.first_seed = 101;
    m.sigma = 0.025;
    m.batch_lanes = 4;
    m.measure_distortion = true;
    return m;
}

// --- typed frame round trips -----------------------------------------------

TEST(SvcProtocol, HelloRoundTrips) {
    const auto record = svc::encode(svc::hello_frame{});
    const svc::hello_frame back = svc::decode_hello(record);
    EXPECT_EQ(back.protocol, svc::protocol_version);
    EXPECT_EQ(back.server, "bistna_serverd");
}

TEST(SvcProtocol, SubmitCarriesTheManifestSchemaVerbatim) {
    svc::submit_frame f;
    f.request = 42;
    f.manifest = sample_manifest();
    const svc::submit_frame back = svc::decode_submit(svc::encode(f));
    EXPECT_EQ(back.request, 42u);
    // One schema: what rides in the frame is exactly what a lot file
    // holds, byte for byte after the round trip.
    EXPECT_EQ(back.manifest.to_json(), f.manifest.to_json());
    EXPECT_EQ(back.manifest.dice, 24u);
    EXPECT_EQ(back.manifest.first_seed, 101u);
}

TEST(SvcProtocol, SubmitAcceptsDictionaryWorkloads) {
    svc::submit_frame f;
    f.request = 7;
    f.manifest.workload = shard::workload_kind::dictionary;
    f.manifest.grid_points = 5;
    const svc::submit_frame back = svc::decode_submit(svc::encode(f));
    EXPECT_EQ(back.manifest.workload, shard::workload_kind::dictionary);
    EXPECT_EQ(back.manifest.to_json(), f.manifest.to_json());
}

TEST(SvcProtocol, ProgressErrorCancelDoneRoundTrip) {
    const auto progress =
        svc::decode_progress(svc::encode(svc::progress_frame{9, 128, 512}));
    EXPECT_EQ(progress.request, 9u);
    EXPECT_EQ(progress.completed, 128u);
    EXPECT_EQ(progress.total, 512u);

    svc::error_frame e;
    e.request = 3;
    e.code = svc::error_code::slow_reader;
    e.message = "send queue stalled";
    e.offset = 12345;
    const auto error = svc::decode_error(svc::encode(e));
    EXPECT_EQ(error.request, 3u);
    EXPECT_EQ(error.code, svc::error_code::slow_reader);
    EXPECT_EQ(error.message, "send queue stalled");
    ASSERT_TRUE(error.offset.has_value());
    EXPECT_EQ(*error.offset, 12345u);

    svc::error_frame no_offset;
    no_offset.code = svc::error_code::overloaded;
    no_offset.message = "full";
    EXPECT_FALSE(svc::decode_error(svc::encode(no_offset)).offset.has_value());

    EXPECT_EQ(svc::decode_cancel(svc::encode(svc::cancel_frame{77})).request, 77u);

    const auto done = svc::decode_done(svc::encode(svc::done_frame{5, 64}));
    EXPECT_EQ(done.request, 5u);
    EXPECT_EQ(done.units, 64u);
}

TEST(SvcProtocol, ResultWrapsTheInnerRecordExactly) {
    store::record inner;
    inner.type = store::record_type::screening_report;
    inner.payload = {0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01};
    svc::result_frame f;
    f.request = 11;
    f.unit = 1000;
    f.record = inner;
    const svc::result_frame back = svc::decode_result(svc::encode(f));
    EXPECT_EQ(back.request, 11u);
    EXPECT_EQ(back.unit, 1000u);
    EXPECT_EQ(back.record.type, inner.type);
    EXPECT_EQ(back.record.payload, inner.payload);
}

TEST(SvcProtocol, ErrorCodeNamesRoundTrip) {
    for (const svc::error_code code :
         {svc::error_code::bad_frame, svc::error_code::bad_request,
          svc::error_code::overloaded, svc::error_code::slow_reader,
          svc::error_code::cancelled, svc::error_code::idle_timeout,
          svc::error_code::shutdown, svc::error_code::internal}) {
        EXPECT_EQ(svc::error_code_from_name(svc::error_code_name(code)), code);
    }
    EXPECT_THROW(svc::error_code_from_name("totally_fine"), configuration_error);
}

TEST(SvcProtocol, DecodersRejectTheWrongFrameType) {
    const auto hello = svc::encode(svc::hello_frame{});
    EXPECT_THROW(svc::decode_submit(hello), configuration_error);
    EXPECT_THROW(svc::decode_progress(hello), configuration_error);
    EXPECT_THROW(svc::decode_result(hello), configuration_error);
}

TEST(SvcProtocol, MalformedControlPayloadsThrow) {
    const std::string not_json = "{\"request\": }";
    store::record r;
    r.type = store::record_type::svc_cancel;
    r.payload.assign(not_json.begin(), not_json.end());
    EXPECT_THROW(svc::decode_cancel(r), configuration_error);

    // Strict integer fields: 1.5 completed units is nonsense and must not
    // be silently truncated.
    const std::string fractional =
        "{\"request\":1,\"completed\":1.5,\"total\":4}";
    r.type = store::record_type::svc_progress;
    r.payload.assign(fractional.begin(), fractional.end());
    EXPECT_THROW(svc::decode_progress(r), configuration_error);

    // 2^53 would round in a double; the reader refuses instead.
    const std::string huge = "{\"request\":9007199254740993,\"units\":1}";
    r.type = store::record_type::svc_done;
    r.payload.assign(huge.begin(), huge.end());
    EXPECT_THROW(svc::decode_done(r), configuration_error);
}

TEST(SvcProtocol, TruncatedResultPayloadThrows) {
    store::record r;
    r.type = store::record_type::svc_result;
    r.payload = {1, 2, 3}; // far short of the 20-byte prefix
    EXPECT_THROW(svc::decode_result(r), serialization_error);
}

// --- incremental frame decoder ---------------------------------------------

std::vector<std::uint8_t> wire_concat(const std::vector<store::record>& records) {
    std::vector<std::uint8_t> bytes;
    for (const auto& r : records) {
        const auto frame = svc::wire_bytes(r);
        bytes.insert(bytes.end(), frame.begin(), frame.end());
    }
    return bytes;
}

TEST(SvcFrameDecoder, ReassemblesByteDribbledFrames) {
    const std::vector<store::record> sent = {
        svc::encode(svc::hello_frame{}),
        svc::encode(svc::progress_frame{1, 2, 3}),
        svc::encode(svc::done_frame{1, 3}),
    };
    const auto bytes = wire_concat(sent);

    frame_decoder decoder;
    std::vector<store::record> got;
    for (const std::uint8_t byte : bytes) {
        decoder.feed(std::span<const std::uint8_t>(&byte, 1));
        while (auto r = decoder.next()) {
            got.push_back(*r);
        }
    }
    ASSERT_EQ(got.size(), sent.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].type, sent[i].type);
        EXPECT_EQ(got[i].payload, sent[i].payload);
    }
    EXPECT_EQ(decoder.offset(), bytes.size());
    EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(SvcFrameDecoder, TruncatedFrameWaitsForMoreBytes) {
    const auto bytes = wire_concat({svc::encode(svc::done_frame{1, 1})});
    frame_decoder decoder;
    decoder.feed(std::span<const std::uint8_t>(bytes.data(), bytes.size() - 1));
    EXPECT_FALSE(decoder.next().has_value());
    EXPECT_EQ(decoder.buffered(), bytes.size() - 1);
    // Were the connection to close here, the payload runs past the end of
    // input: the verdict names the length field.
    try {
        decoder.finish();
        ADD_FAILURE() << "input ending mid-frame was accepted";
    } catch (const serialization_error& e) {
        EXPECT_EQ(e.byte_offset(), 4u) << e.what();
    }
    decoder.feed(std::span<const std::uint8_t>(bytes.data() + bytes.size() - 1, 1));
    EXPECT_TRUE(decoder.next().has_value());
    decoder.finish(); // a frame boundary ends quietly
}

TEST(SvcFrameDecoder, CrcDamageNamesTheFrameOffset) {
    const auto good = wire_concat({svc::encode(svc::progress_frame{1, 0, 8})});
    auto bytes = wire_concat({svc::encode(svc::done_frame{2, 8})});
    bytes[store::frame_header_size] ^= 0x40; // flip one payload bit

    frame_decoder decoder;
    decoder.feed(std::span<const std::uint8_t>(good.data(), good.size()));
    ASSERT_TRUE(decoder.next().has_value());
    decoder.feed(std::span<const std::uint8_t>(bytes.data(), bytes.size()));
    try {
        (void)decoder.next();
        FAIL() << "expected serialization_error";
    } catch (const serialization_error& e) {
        // The damaged frame starts right after the good one: the offset
        // is absolute within the stream, not within one feed() call.
        EXPECT_EQ(e.byte_offset(), good.size());
        EXPECT_NE(std::string(e.what()).find("CRC"), std::string::npos);
    }
}

TEST(SvcFrameDecoder, ImplausibleLengthIsRejectedBeforeBuffering) {
    frame_decoder decoder(/*max_payload=*/1024);
    std::uint8_t header[store::frame_header_size] = {};
    const std::uint32_t huge = 1u << 30;
    std::memcpy(header + 4, &huge, 4);
    decoder.feed(std::span<const std::uint8_t>(header, sizeof header));
    try {
        (void)decoder.next();
        FAIL() << "expected serialization_error";
    } catch (const serialization_error& e) {
        EXPECT_EQ(e.byte_offset(), 4u); // the length field itself
    }
}

TEST(SvcFrameDecoder, LargePayloadWithinTheCapSurvivesCompaction) {
    // Many small frames followed by a large one exercises the lazy
    // buffer compaction path (head_ slides past 4096).
    std::vector<store::record> sent;
    for (int i = 0; i < 600; ++i) {
        sent.push_back(svc::encode(svc::progress_frame{
            static_cast<std::uint64_t>(i) + 1, 0, 1}));
    }
    store::record big;
    big.type = store::record_type::svc_result;
    big.payload.assign(100000, 0xAB);
    {
        // Re-encode as a proper result frame so decode sanity holds.
        store::record inner;
        inner.type = store::record_type::screening_report;
        inner.payload.assign(100000, 0xAB);
        svc::result_frame f;
        f.request = 1;
        f.unit = 0;
        f.record = inner;
        big = svc::encode(f);
    }
    sent.push_back(big);
    const auto bytes = wire_concat(sent);

    frame_decoder decoder;
    std::size_t fed = 0;
    std::size_t got = 0;
    while (fed < bytes.size()) {
        const std::size_t chunk = std::min<std::size_t>(777, bytes.size() - fed);
        decoder.feed(std::span<const std::uint8_t>(bytes.data() + fed, chunk));
        fed += chunk;
        while (auto r = decoder.next()) {
            ++got;
            if (got == sent.size()) {
                EXPECT_EQ(r->payload, big.payload);
            }
        }
    }
    EXPECT_EQ(got, sent.size());
    EXPECT_EQ(decoder.offset(), bytes.size());
}

} // namespace
