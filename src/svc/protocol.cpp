#include "svc/protocol.hpp"

#include <utility>

#include "common/error.hpp"
#include "common/json.hpp"

namespace bistna::svc {

namespace {

[[noreturn]] void frame_error(const char* what, const store::record& r) {
    throw configuration_error(std::string("service frame: ") + what + " (type " +
                              std::to_string(static_cast<unsigned>(r.type)) + ")");
}

void expect(const store::record& r, store::record_type type, const char* what) {
    if (r.type != type) {
        frame_error(what, r);
    }
}

store::record json_record(store::record_type type, const json_value& value) {
    const std::string text = to_json(value);
    return store::record{type,
                         std::vector<std::uint8_t>(text.begin(), text.end())};
}

json_value parse_control(const store::record& r, const char* context) {
    return parse_json(std::string_view(reinterpret_cast<const char*>(r.payload.data()),
                                       r.payload.size()),
                      context);
}

json_value number(double v) {
    json_value n;
    n.type = json_value::kind::number;
    n.num = v;
    return n;
}

json_value text(std::string s) {
    json_value v;
    v.type = json_value::kind::string;
    v.str = std::move(s);
    return v;
}

/// u64s travel as JSON numbers; the doubles are exact below 2^53, which
/// covers every id/count the protocol carries (json_exact_u64 rejects
/// anything larger rather than rounding it).
std::uint64_t get_u64(const json_value& object, const char* key, const char* context) {
    const json_value* v = object.find(key);
    const auto value = v == nullptr ? std::nullopt : json_exact_u64(*v);
    if (!value) {
        throw configuration_error(std::string(context) + ": field \"" + key +
                                  "\" must be a non-negative integer below 2^53");
    }
    return *value;
}

std::string get_string(const json_value& object, const char* key, const char* context) {
    const json_value* v = object.find(key);
    if (v == nullptr || v->type != json_value::kind::string) {
        throw configuration_error(std::string(context) + ": field \"" + key +
                                  "\" must be a string");
    }
    return v->str;
}

} // namespace

const char* error_code_name(error_code code) noexcept {
    switch (code) {
    case error_code::bad_frame: return "bad_frame";
    case error_code::bad_request: return "bad_request";
    case error_code::overloaded: return "overloaded";
    case error_code::slow_reader: return "slow_reader";
    case error_code::cancelled: return "cancelled";
    case error_code::idle_timeout: return "idle_timeout";
    case error_code::shutdown: return "shutdown";
    case error_code::internal: return "internal";
    }
    return "internal";
}

error_code error_code_from_name(std::string_view name) {
    for (const error_code code :
         {error_code::bad_frame, error_code::bad_request, error_code::overloaded,
          error_code::slow_reader, error_code::cancelled, error_code::idle_timeout,
          error_code::shutdown, error_code::internal}) {
        if (name == error_code_name(code)) {
            return code;
        }
    }
    throw configuration_error("service frame: unknown error code \"" +
                              std::string(name) + "\"");
}

// --- encoders --------------------------------------------------------------

store::record encode(const hello_frame& f) {
    json_value root;
    root.type = json_value::kind::object;
    root.members.emplace_back("protocol", number(static_cast<double>(f.protocol)));
    root.members.emplace_back("server", text(f.server));
    return json_record(store::record_type::svc_hello, root);
}

store::record encode(const submit_frame& f) {
    json_value root;
    root.type = json_value::kind::object;
    root.members.emplace_back("request", number(static_cast<double>(f.request)));
    // The manifest nests as a JSON object -- reparsed here so the frame is
    // one well-formed document, and decoded by the very parser the shard
    // path loads lot files with (one schema, shared verbatim).
    root.members.emplace_back("manifest",
                              parse_json(f.manifest.to_json(), "manifest JSON"));
    return json_record(store::record_type::svc_submit, root);
}

store::record encode(const progress_frame& f) {
    json_value root;
    root.type = json_value::kind::object;
    root.members.emplace_back("request", number(static_cast<double>(f.request)));
    root.members.emplace_back("completed", number(static_cast<double>(f.completed)));
    root.members.emplace_back("total", number(static_cast<double>(f.total)));
    return json_record(store::record_type::svc_progress, root);
}

store::record encode(const error_frame& f) {
    json_value root;
    root.type = json_value::kind::object;
    root.members.emplace_back("request", number(static_cast<double>(f.request)));
    root.members.emplace_back("code", text(error_code_name(f.code)));
    root.members.emplace_back("message", text(f.message));
    if (f.offset) {
        root.members.emplace_back("offset", number(static_cast<double>(*f.offset)));
    }
    return json_record(store::record_type::svc_error, root);
}

store::record encode(const cancel_frame& f) {
    json_value root;
    root.type = json_value::kind::object;
    root.members.emplace_back("request", number(static_cast<double>(f.request)));
    return json_record(store::record_type::svc_cancel, root);
}

store::record encode(const done_frame& f) {
    json_value root;
    root.type = json_value::kind::object;
    root.members.emplace_back("request", number(static_cast<double>(f.request)));
    root.members.emplace_back("units", number(static_cast<double>(f.units)));
    return json_record(store::record_type::svc_done, root);
}

store::record encode(const result_frame& f) {
    store::byte_writer w;
    w.u64(f.request);
    w.u64(f.unit);
    w.u16(static_cast<std::uint16_t>(f.record.type));
    w.u16(0); // reserved
    w.bytes(f.record.payload.data(), f.record.payload.size());
    return store::record{store::record_type::svc_result, w.take()};
}

std::vector<std::uint8_t> wire_bytes(const store::record& r) {
    return store::encode_frame(r.type, r.payload);
}

// --- decoders --------------------------------------------------------------

hello_frame decode_hello(const store::record& r) {
    expect(r, store::record_type::svc_hello, "expected hello");
    const json_value root = parse_control(r, "hello JSON");
    hello_frame f;
    f.protocol = static_cast<std::uint32_t>(get_u64(root, "protocol", "hello"));
    f.server = get_string(root, "server", "hello");
    return f;
}

submit_frame decode_submit(const store::record& r) {
    expect(r, store::record_type::svc_submit, "expected submit");
    const json_value root = parse_control(r, "submit JSON");
    submit_frame f;
    f.request = get_u64(root, "request", "submit");
    const json_value* manifest = root.find("manifest");
    if (manifest == nullptr) {
        throw configuration_error("submit: missing \"manifest\" object");
    }
    f.manifest = shard::lot_manifest::from_value(*manifest);
    return f;
}

progress_frame decode_progress(const store::record& r) {
    expect(r, store::record_type::svc_progress, "expected progress");
    const json_value root = parse_control(r, "progress JSON");
    progress_frame f;
    f.request = get_u64(root, "request", "progress");
    f.completed = get_u64(root, "completed", "progress");
    f.total = get_u64(root, "total", "progress");
    return f;
}

error_frame decode_error(const store::record& r) {
    expect(r, store::record_type::svc_error, "expected error");
    const json_value root = parse_control(r, "error JSON");
    error_frame f;
    f.request = get_u64(root, "request", "error");
    f.code = error_code_from_name(get_string(root, "code", "error"));
    f.message = get_string(root, "message", "error");
    if (root.find("offset") != nullptr) {
        f.offset = get_u64(root, "offset", "error");
    }
    return f;
}

cancel_frame decode_cancel(const store::record& r) {
    expect(r, store::record_type::svc_cancel, "expected cancel");
    const json_value root = parse_control(r, "cancel JSON");
    cancel_frame f;
    f.request = get_u64(root, "request", "cancel");
    return f;
}

done_frame decode_done(const store::record& r) {
    expect(r, store::record_type::svc_done, "expected done");
    const json_value root = parse_control(r, "done JSON");
    done_frame f;
    f.request = get_u64(root, "request", "done");
    f.units = get_u64(root, "units", "done");
    return f;
}

result_frame decode_result(const store::record& r) {
    expect(r, store::record_type::svc_result, "expected result");
    store::byte_reader reader(r.payload);
    result_frame f;
    f.request = reader.u64();
    f.unit = reader.u64();
    f.record.type = static_cast<store::record_type>(reader.u16());
    reader.u16(); // reserved
    f.record.payload.assign(r.payload.begin() + 20, r.payload.end());
    return f;
}

} // namespace bistna::svc
