#include "svc/client.hpp"

#include <iostream>
#include <utility>

#include "common/cli.hpp"
#include "common/error.hpp"
#include "store/lot_store.hpp"

namespace bistna::svc {

client::client(const std::string& endpoint_text)
    : fd_(connect_endpoint(parse_endpoint(endpoint_text))) {
    // The connection opens with the server's hello; anything else (or a
    // version we do not speak) is a handshake failure.
    std::optional<store::record> first = read_frame();
    if (!first) {
        throw configuration_error("service client: server closed the connection "
                                  "before hello");
    }
    hello_ = decode_hello(*first);
    if (hello_.protocol != protocol_version) {
        throw configuration_error(
            "service client: protocol mismatch (server speaks v" +
            std::to_string(hello_.protocol) + ", client v" +
            std::to_string(protocol_version) + ")");
    }
}

client::~client() = default;

void client::send_record(const store::record& r) {
    const std::vector<std::uint8_t> bytes = wire_bytes(r);
    std::size_t sent = 0;
    while (sent < bytes.size()) {
        const long n = send_some(fd_.get(), bytes.data() + sent, bytes.size() - sent);
        if (n < 0) {
            throw configuration_error("service client: connection lost while sending");
        }
        sent += static_cast<std::size_t>(n);
    }
}

std::optional<store::record> client::read_frame() {
    for (;;) {
        if (auto record = decoder_.next()) {
            return record;
        }
        std::uint8_t buf[65536];
        const long n = recv_some(fd_.get(), buf, sizeof buf);
        if (n < 0) {
            decoder_.finish(); // a frame cut off by the close throws
            return std::nullopt; // clean EOF on a frame boundary
        }
        decoder_.feed(std::span<const std::uint8_t>(buf, static_cast<std::size_t>(n)));
    }
}

void client::submit(std::uint64_t request, const shard::lot_manifest& manifest) {
    submit_frame f;
    f.request = request;
    f.manifest = manifest;
    send_record(encode(f));
    next_request_ = std::max(next_request_, request + 1);
}

void client::cancel(std::uint64_t request) {
    send_record(encode(cancel_frame{request}));
}

std::optional<client::event> client::next_event() {
    std::optional<store::record> record = read_frame();
    if (!record) {
        return std::nullopt;
    }
    event e;
    switch (record->type) {
    case store::record_type::svc_progress:
        e.type = event::kind::progress;
        e.progress = decode_progress(*record);
        return e;
    case store::record_type::svc_result:
        e.type = event::kind::result;
        e.result = decode_result(*record);
        return e;
    case store::record_type::svc_error:
        e.type = event::kind::error;
        e.error = decode_error(*record);
        return e;
    case store::record_type::svc_done:
        e.type = event::kind::done;
        e.done = decode_done(*record);
        return e;
    default:
        throw configuration_error("service client: unexpected frame type " +
                                  std::to_string(static_cast<unsigned>(record->type)));
    }
}

std::vector<store::record> client::collect(std::uint64_t request) {
    std::vector<store::record> records;
    for (;;) {
        std::optional<event> e = next_event();
        if (!e) {
            throw configuration_error(
                "service client: server hung up mid-request (after " +
                std::to_string(records.size()) + " records)");
        }
        switch (e->type) {
        case event::kind::result:
            if (e->result.request == request) {
                records.push_back(std::move(e->result.record));
            }
            break;
        case event::kind::done:
            if (e->done.request == request) {
                return records;
            }
            break;
        case event::kind::error:
            // Request-scoped errors for this request and session-scoped
            // verdicts (request 0: shed, shutdown, ...) both end the wait.
            if (e->error.request == request || e->error.request == 0) {
                throw service_error(std::move(e->error));
            }
            break;
        case event::kind::progress:
            break;
        }
    }
}

std::vector<store::record> client::run(const shard::lot_manifest& manifest) {
    const std::uint64_t request = next_request_++;
    submit(request, manifest);
    return collect(request);
}

// --- example front end ------------------------------------------------------

int client_main(int argc, char** argv) {
    try {
        const std::string endpoint =
            flag_string(argc, argv, "connect", "/tmp/bistna_serverd.sock");
        const std::string manifest_path = flag_text(argc, argv, "manifest");
        const std::string store_path = flag_text(argc, argv, "store");
        const std::uint64_t cancel_after = flag_u64(argc, argv, "cancel-after", 0);

        shard::lot_manifest manifest;
        if (!manifest_path.empty()) {
            manifest = shard::lot_manifest::load(manifest_path);
        } else {
            manifest.workload = shard::workload_kind::screening;
            manifest.dice = flag_u64(argc, argv, "dice", 16);
            manifest.sigma = flag_double(argc, argv, "sigma", 0.03);
            manifest.batch_lanes =
                static_cast<std::size_t>(flag_u64(argc, argv, "lanes", 8));
        }

        client c(endpoint);
        std::cout << "connected: " << c.hello().server << " (protocol v"
                  << c.hello().protocol << ")\n";

        const std::uint64_t request = 1;
        c.submit(request, manifest);

        std::unique_ptr<store::lot_store> result_store;
        if (!store_path.empty()) {
            result_store = std::make_unique<store::lot_store>(
                store::lot_store::open_append(store_path));
        }

        std::uint64_t received = 0;
        for (;;) {
            std::optional<client::event> e = c.next_event();
            if (!e) {
                std::cerr << "screening_client: server hung up\n";
                return 2;
            }
            if (e->type == client::event::kind::progress &&
                e->progress.request == request) {
                std::cout << "progress: " << e->progress.completed << "/"
                          << e->progress.total << "\n";
            } else if (e->type == client::event::kind::result &&
                       e->result.request == request) {
                ++received;
                if (result_store) {
                    result_store->append(e->result.record);
                }
                if (cancel_after != 0 && received == cancel_after) {
                    std::cout << "cancelling after " << received << " records\n";
                    c.cancel(request);
                }
            } else if (e->type == client::event::kind::done &&
                       e->done.request == request) {
                std::cout << "done: " << e->done.units << " records";
                if (result_store) {
                    std::cout << " -> '" << result_store->path() << "' ("
                              << result_store->records() << " total)";
                }
                std::cout << "\n";
                return 0;
            } else if (e->type == client::event::kind::error &&
                       (e->error.request == request || e->error.request == 0)) {
                std::cerr << "screening_client: " << error_code_name(e->error.code)
                          << ": " << e->error.message << "\n";
                // A cancel we asked for is a success path.
                return (cancel_after != 0 &&
                        e->error.code == error_code::cancelled)
                           ? 0
                           : 3;
            }
        }
    } catch (const std::exception& e) {
        std::cerr << "screening_client: " << e.what() << "\n";
        return 2;
    }
}

} // namespace bistna::svc
