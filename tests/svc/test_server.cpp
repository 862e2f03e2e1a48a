// The screening service daemon, in process: session lifecycle, streamed
// bit-identity against the offline unit_stream, fairness across
// concurrent sessions, graceful overload shedding (admission, quota,
// slow readers), cooperative cancel (frame and disconnect), malformed
// input survival, framing-damage byte offsets, idle timeouts, the timeout
// bound and the TCP loopback listener.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <unistd.h>

#include "common/error.hpp"
#include "shard/manifest.hpp"
#include "shard/unit_stream.hpp"
#include "svc/client.hpp"
#include "svc/protocol.hpp"
#include "svc/server.hpp"
#include "svc/socket.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/snapshot.hpp"

namespace {

using namespace bistna;
using namespace std::chrono_literals;
using svc::client;
using svc::error_code;
using svc::server_options;
using svc::service_server;

/// A unique socket path per test (parallel ctest shards share /tmp).
std::string socket_path(const char* name) {
    return "/tmp/bistna_svc_" + std::string(name) + "_" + std::to_string(::getpid()) +
           ".sock";
}

/// Short-acquisition manifest; `dice` scales the job length.
shard::lot_manifest fast_manifest(std::uint64_t dice, std::uint64_t first_seed = 11) {
    shard::lot_manifest manifest;
    manifest.periods = 20;
    manifest.settle_periods = 4;
    manifest.distortion_periods = 40;
    manifest.calibration_periods = 256;
    manifest.dice = dice;
    manifest.first_seed = first_seed;
    manifest.threads = 1;
    manifest.batch_lanes = 4;
    return manifest;
}

server_options fast_options(const std::string& path) {
    server_options o;
    o.listen_path = path;
    o.worker_threads = 2;
    o.max_active_jobs = 2;
    o.admission_capacity = 8;
    o.session_quota = 4;
    return o;
}

/// What the offline path would produce for this manifest, via the same
/// unit_stream seam the shard worker appends from.
std::vector<store::record> offline_records(const shard::lot_manifest& manifest) {
    shard::unit_stream stream(manifest, 0, manifest.total_units());
    std::vector<store::record> records;
    while (auto item = stream.next()) {
        records.push_back(std::move(item->record));
    }
    return records;
}

void send_raw(int fd, const std::vector<std::uint8_t>& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
        const long n = svc::send_some(fd, bytes.data() + sent, bytes.size() - sent);
        ASSERT_GT(n, 0) << "raw send failed";
        sent += static_cast<std::size_t>(n);
    }
}

/// One of the daemon's svc.* counters, as the attached registry holds it.
std::uint64_t counted(const telemetry::metric_registry& registry, const char* name) {
    return registry.snapshot().counter(name);
}

/// Samples recorded so far in one of the registry's histograms.
std::uint64_t samples(const telemetry::metric_registry& registry, const char* name) {
    const auto snapshot = registry.snapshot();
    const auto* histogram = snapshot.find_histogram(name);
    return histogram == nullptr ? 0 : histogram->count;
}

/// Spin until `predicate` holds or `deadline` elapses.
template <typename Fn> bool eventually(Fn predicate, std::chrono::milliseconds deadline) {
    const auto until = std::chrono::steady_clock::now() + deadline;
    while (std::chrono::steady_clock::now() < until) {
        if (predicate()) {
            return true;
        }
        std::this_thread::sleep_for(2ms);
    }
    return predicate();
}

TEST(SvcServer, StreamsAJobBitIdenticalToTheOfflinePath) {
    const std::string path = socket_path("basic");
    telemetry::metric_registry registry;
    telemetry::registry_scope metering(registry);
    service_server server(fast_options(path));
    server.start();

    const auto manifest = fast_manifest(5);
    const auto expected = offline_records(manifest);

    client c(path);
    EXPECT_EQ(c.hello().protocol, svc::protocol_version);
    const auto records = c.run(manifest);

    ASSERT_EQ(records.size(), expected.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i], expected[i]) << "unit " << i << " diverged";
    }
    server.stop();
    const auto snapshot = registry.snapshot();
    EXPECT_EQ(snapshot.counter("svc.jobs.completed"), 1u);
    EXPECT_EQ(snapshot.counter("svc.jobs.failed"), 0u);
}

TEST(SvcServer, ConcurrentSessionsShareOnePoolAndStayBitIdentical) {
    const std::string path = socket_path("concurrent");
    telemetry::metric_registry registry;
    telemetry::registry_scope metering(registry);
    service_server server(fast_options(path));
    server.start();

    // Three different lots (screening x2, dictionary x1), three sessions,
    // all at once on one worker pool.
    std::vector<shard::lot_manifest> lots = {fast_manifest(6, 100),
                                             fast_manifest(4, 500)};
    auto dict = fast_manifest(0);
    dict.workload = shard::workload_kind::dictionary;
    dict.grid_points = 2;
    lots.push_back(dict);

    std::vector<std::future<std::vector<store::record>>> futures;
    for (const auto& lot : lots) {
        futures.push_back(std::async(std::launch::async, [&path, lot] {
            client c(path);
            return c.run(lot);
        }));
    }
    for (std::size_t i = 0; i < lots.size(); ++i) {
        const auto records = futures[i].get();
        const auto expected = offline_records(lots[i]);
        ASSERT_EQ(records.size(), expected.size()) << "lot " << i;
        for (std::size_t u = 0; u < records.size(); ++u) {
            EXPECT_EQ(records[u], expected[u]) << "lot " << i << " unit " << u;
        }
    }
    server.stop();
    EXPECT_EQ(counted(registry, "svc.jobs.completed"), 3u);
}

TEST(SvcServer, AdmissionOverloadShedsWithTypedError) {
    const std::string path = socket_path("overload");
    auto options = fast_options(path);
    options.worker_threads = 1;
    options.max_active_jobs = 1;
    options.admission_capacity = 1;
    // A request keeps its slot until its last result is queued: with a
    // tiny send queue and socket buffer, and no stall shedding, a client
    // that stops reading holds the slot however fast the pool runs.
    options.send_queue_limit = 1024;
    options.socket_send_buffer = 4096;
    options.stall_timeout_ms = 0;
    telemetry::metric_registry registry;
    telemetry::registry_scope metering(registry);
    service_server server(std::move(options));
    server.start();

    // A occupies the single active slot and reads nothing past admission.
    client a(path);
    a.submit(1, fast_manifest(5000));
    auto first = a.next_event(); // progress 0/5000: the job was admitted
    ASSERT_TRUE(first.has_value());
    ASSERT_EQ(first->type, client::event::kind::progress);

    // B fills the one admission slot.  A queued submit gets no ack (its
    // first frame is the progress on dispatch), so wait until the server
    // has queued it -- one admission-depth sample per queued submit, A's
    // and B's -- before C races in.
    client b(path);
    b.submit(1, fast_manifest(2, 900));
    ASSERT_TRUE(
        eventually([&] { return samples(registry, "svc.admission.depth") == 2; }, 8000ms));

    // C must be shed immediately with a typed overloaded error -- never
    // queued invisibly, never hung.
    client c(path);
    c.submit(1, fast_manifest(2, 901));
    try {
        (void)c.collect(1);
        FAIL() << "expected overloaded";
    } catch (const svc::service_error& e) {
        EXPECT_EQ(e.code(), error_code::overloaded);
        EXPECT_EQ(e.frame().request, 1u);
    }

    // A cancels -- units it has not been sent are dropped even when the
    // pool already computed them; B's queued job then dispatches and
    // completes intact.
    a.cancel(1);
    try {
        (void)a.collect(1);
        FAIL() << "expected cancelled";
    } catch (const svc::service_error& e) {
        EXPECT_EQ(e.code(), error_code::cancelled);
    }
    const auto records = b.collect(1);
    EXPECT_EQ(records.size(), 2u);
    server.stop();
    // Every queued submit was dispatched: nothing here is cancelled before
    // dispatch, so an empty admission queue means as many admissions as
    // queued submits.
    EXPECT_GE(counted(registry, "svc.jobs.rejected"), 1u);
    EXPECT_EQ(counted(registry, "svc.jobs.admitted"),
              samples(registry, "svc.admission.depth"));
}

TEST(SvcServer, SessionQuotaShedsTheExtraRequest) {
    const std::string path = socket_path("quota");
    auto options = fast_options(path);
    options.session_quota = 2;
    options.worker_threads = 1;
    options.max_active_jobs = 1;
    service_server server(std::move(options));
    server.start();

    client c(path);
    // Request 1 must outlive the whole exchange so both 1 and 2 are live
    // when 3 arrives -- stop() cancels it, so the size costs nothing.
    c.submit(1, fast_manifest(3000));
    c.submit(2, fast_manifest(2, 700));
    c.submit(3, fast_manifest(2, 701)); // over quota
    bool saw_overloaded = false;
    // Request 3's rejection arrives while 1 and 2 are still streaming.
    for (int events = 0; events < 400 && !saw_overloaded; ++events) {
        auto e = c.next_event();
        ASSERT_TRUE(e.has_value());
        if (e->type == client::event::kind::error) {
            EXPECT_EQ(e->error.request, 3u);
            EXPECT_EQ(e->error.code, error_code::overloaded);
            saw_overloaded = true;
        }
    }
    EXPECT_TRUE(saw_overloaded);
    server.stop();
}

TEST(SvcServer, SlowButSteadyReaderBackpressuresWithoutShedding) {
    const std::string path = socket_path("backpressure");
    auto options = fast_options(path);
    options.send_queue_limit = 2048;
    options.socket_send_buffer = 4096;
    options.stall_timeout_ms = 4000; // generous: steady readers never stall
    telemetry::metric_registry registry;
    telemetry::registry_scope metering(registry);
    service_server server(std::move(options));
    server.start();

    const auto manifest = fast_manifest(30);
    const auto expected = offline_records(manifest);

    client c(path);
    c.submit(1, manifest);
    std::vector<store::record> records;
    for (;;) {
        auto e = c.next_event();
        ASSERT_TRUE(e.has_value());
        if (e->type == client::event::kind::result) {
            records.push_back(std::move(e->result.record));
            std::this_thread::sleep_for(2ms); // slow, but draining
        } else if (e->type == client::event::kind::done) {
            break;
        } else if (e->type == client::event::kind::error) {
            FAIL() << "unexpected error: " << e->error.message;
        }
    }
    ASSERT_EQ(records.size(), expected.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i], expected[i]) << "unit " << i;
    }
    server.stop();
    const auto snapshot = registry.snapshot();
    EXPECT_EQ(snapshot.counter("svc.sessions.shed"), 0u);
    EXPECT_EQ(snapshot.counter("svc.jobs.completed"), 1u);
}

TEST(SvcServer, StalledReaderIsShedWithSlowReaderError) {
    const std::string path = socket_path("shed");
    auto options = fast_options(path);
    options.send_queue_limit = 2048;
    options.socket_send_buffer = 4096;
    options.stall_timeout_ms = 150;
    telemetry::metric_registry registry;
    telemetry::registry_scope metering(registry);
    service_server server(std::move(options));
    server.start();

    client c(path);
    c.submit(1, fast_manifest(120));
    // Read NOTHING: the kernel buffer fills, then the server-side queue,
    // then the stall clock runs out.
    ASSERT_TRUE(
        eventually([&] { return counted(registry, "svc.sessions.shed") == 1; }, 8000ms));

    // The verdict is still delivered: drain what the kernel buffered.
    // The shed drops the queued backlog but never truncates mid-frame,
    // so the stream stays well-formed all the way to the typed
    // slow_reader frame and the EOF after it.
    bool saw_shed = false;
    for (;;) {
        std::optional<client::event> e = c.next_event();
        if (!e) {
            break;
        }
        if (e->type == client::event::kind::error) {
            EXPECT_EQ(e->error.code, error_code::slow_reader);
            EXPECT_EQ(e->error.request, 0u); // session-scoped
            saw_shed = true;
        }
    }
    EXPECT_TRUE(saw_shed);
    server.stop();
    EXPECT_GE(counted(registry, "svc.jobs.cancelled"), 1u);
}

TEST(SvcServer, MalformedSubmitGetsBadRequestAndSessionSurvives) {
    const std::string path = socket_path("badsubmit");
    telemetry::metric_registry registry;
    telemetry::registry_scope metering(registry);
    service_server server(fast_options(path));
    server.start();

    client c(path);
    // CRC-valid frame, garbage payload: a request-level error.
    store::record bad;
    bad.type = store::record_type::svc_submit;
    const std::string not_json = "{\"request\": oops";
    bad.payload.assign(not_json.begin(), not_json.end());
    send_raw(c.fd(), svc::wire_bytes(bad));

    auto e = c.next_event();
    ASSERT_TRUE(e.has_value());
    ASSERT_EQ(e->type, client::event::kind::error);
    EXPECT_EQ(e->error.code, error_code::bad_request);

    // Unknown-but-well-formed frame types are also survivable.
    store::record odd;
    odd.type = store::record_type::svc_done; // clients never send done
    const std::string done = "{\"request\":1,\"units\":0}";
    odd.payload.assign(done.begin(), done.end());
    send_raw(c.fd(), svc::wire_bytes(odd));
    e = c.next_event();
    ASSERT_TRUE(e.has_value());
    ASSERT_EQ(e->type, client::event::kind::error);
    EXPECT_EQ(e->error.code, error_code::bad_request);

    // The same session still does real work afterwards.
    const auto records = c.run(fast_manifest(2));
    EXPECT_EQ(records.size(), 2u);
    server.stop();
    EXPECT_EQ(counted(registry, "svc.sessions.shed"), 0u);
}

TEST(SvcServer, DuplicateRequestIdIsRejected) {
    const std::string path = socket_path("dupid");
    service_server server(fast_options(path));
    server.start();

    client c(path);
    // The first job must still be live when the duplicate lands, so make
    // it far larger than the test's lifetime (stop() cancels it).
    c.submit(7, fast_manifest(3000));
    c.submit(7, fast_manifest(2, 800)); // same id while the first is live
    bool saw_duplicate = false;
    for (int events = 0; events < 100 && !saw_duplicate; ++events) {
        auto e = c.next_event();
        ASSERT_TRUE(e.has_value());
        if (e->type == client::event::kind::error) {
            EXPECT_EQ(e->error.request, 7u);
            EXPECT_EQ(e->error.code, error_code::bad_request);
            saw_duplicate = true;
        }
        if (e->type == client::event::kind::done) {
            break;
        }
    }
    EXPECT_TRUE(saw_duplicate);
    server.stop();
}

TEST(SvcServer, FramingDamageAnswersWithByteOffsetThenCloses) {
    const std::string path = socket_path("framing");
    service_server server(fast_options(path));
    server.start();

    client c(path);
    // One valid frame first, so the reported offset proves it is
    // absolute within the session's byte stream, not per-read.
    const auto valid = svc::wire_bytes(svc::encode(svc::cancel_frame{99}));
    send_raw(c.fd(), valid);

    auto corrupt = svc::wire_bytes(svc::encode(svc::cancel_frame{100}));
    corrupt[corrupt.size() - 1] ^= 0xFF; // break the CRC
    send_raw(c.fd(), corrupt);

    auto e = c.next_event();
    ASSERT_TRUE(e.has_value());
    ASSERT_EQ(e->type, client::event::kind::error);
    EXPECT_EQ(e->error.code, error_code::bad_frame);
    ASSERT_TRUE(e->error.offset.has_value());
    EXPECT_EQ(*e->error.offset, valid.size());
    // A byte stream cannot resync after CRC damage: the session closes.
    EXPECT_FALSE(c.next_event().has_value());

    // The daemon decodes under the 8 MiB wire cap, not the store's 1 GiB
    // one: a header declaring one byte more is refused at its length
    // field before any of the payload is buffered.
    client oversized(path);
    std::vector<std::uint8_t> header(store::frame_header_size, 0);
    const auto type = static_cast<std::uint16_t>(store::record_type::svc_submit);
    const std::uint32_t length = svc::max_frame_payload + 1;
    std::memcpy(header.data(), &type, sizeof type);
    std::memcpy(header.data() + 4, &length, sizeof length);
    send_raw(oversized.fd(), header);
    // Half-close: a daemon that waited for the payload would see the end
    // of input and hang up, failing the test instead of hanging it.
    ASSERT_EQ(::shutdown(oversized.fd(), SHUT_WR), 0);

    e = oversized.next_event();
    ASSERT_TRUE(e.has_value());
    ASSERT_EQ(e->type, client::event::kind::error);
    EXPECT_EQ(e->error.code, error_code::bad_frame);
    ASSERT_TRUE(e->error.offset.has_value());
    EXPECT_EQ(*e->error.offset, 4u);
    EXPECT_FALSE(oversized.next_event().has_value());
    server.stop();
}

TEST(SvcServer, CancelFrameStopsAJobMidStream) {
    const std::string path = socket_path("cancel");
    service_server server(fast_options(path));
    server.start();

    client c(path);
    // Large enough that the pool cannot finish before the cancel frame
    // is processed (cancel after the first streamed result).
    c.submit(1, fast_manifest(3000));
    // Wait for the first result so the cancel lands mid-job.
    std::uint64_t received = 0;
    bool cancelled = false;
    for (;;) {
        auto e = c.next_event();
        ASSERT_TRUE(e.has_value());
        if (e->type == client::event::kind::result) {
            if (++received == 1) {
                c.cancel(1);
            }
        } else if (e->type == client::event::kind::error) {
            EXPECT_EQ(e->error.request, 1u);
            EXPECT_EQ(e->error.code, error_code::cancelled);
            cancelled = true;
            break;
        } else if (e->type == client::event::kind::done) {
            break; // legal but unexpected for a lot this large
        }
    }
    EXPECT_TRUE(cancelled);
    EXPECT_LT(received, 3000u);

    // Cooperative cancel is per request, not per session.
    const auto records = c.run(fast_manifest(2, 600));
    EXPECT_EQ(records.size(), 2u);
    server.stop();
}

TEST(SvcServer, ClientDisconnectCancelsItsJobs) {
    const std::string path = socket_path("disconnect");
    auto options = fast_options(path);
    options.worker_threads = 1;
    telemetry::metric_registry registry;
    telemetry::registry_scope metering(registry);
    service_server server(std::move(options));
    server.start();

    {
        client doomed(path);
        doomed.submit(1, fast_manifest(2000));
        auto e = doomed.next_event(); // admitted
        ASSERT_TRUE(e.has_value());
    } // socket slams shut mid-job

    ASSERT_TRUE(
        eventually([&] { return counted(registry, "svc.jobs.cancelled") >= 1; }, 8000ms));
    ASSERT_TRUE(
        eventually([&] { return counted(registry, "svc.sessions.closed") >= 1; }, 2000ms));

    // The pool is free again: a new session's job runs promptly.
    client c(path);
    const auto records = c.run(fast_manifest(2, 300));
    EXPECT_EQ(records.size(), 2u);
    server.stop();
}

TEST(SvcServer, IdleSessionsAreClosedWithTypedError) {
    const std::string path = socket_path("idle");
    auto options = fast_options(path);
    options.idle_timeout_ms = 100;
    service_server server(std::move(options));
    server.start();

    client c(path);
    auto e = c.next_event(); // sit idle: the next frame is the timeout
    ASSERT_TRUE(e.has_value());
    ASSERT_EQ(e->type, client::event::kind::error);
    EXPECT_EQ(e->error.code, error_code::idle_timeout);
    EXPECT_FALSE(c.next_event().has_value()); // then EOF
    server.stop();
}

// The loop counts both timeouts in nanoseconds on a 64-bit clock, so
// start() refuses either one past 2^63 ns, as it refuses a port past 65535;
// unchecked, 18446744073710 ms would wrap to a 0.45 ms idle timeout.
TEST(SvcServer, TimeoutsPastTwoToThe63NanosecondsAreRejected) {
    ASSERT_EQ(server_options::max_timeout_ms, 9'223'372'036'854u);
    const std::string path = socket_path("timeouts");
    for (const auto field :
         {&server_options::stall_timeout_ms, &server_options::idle_timeout_ms}) {
        for (const std::uint64_t ms : {server_options::max_timeout_ms,
                                       server_options::max_timeout_ms + 1,
                                       std::uint64_t{18'446'744'073'710}}) {
            auto options = fast_options(path);
            options.*field = ms;
            service_server server(std::move(options));
            if (ms > server_options::max_timeout_ms) {
                EXPECT_THROW(server.start(), configuration_error) << ms;
                EXPECT_FALSE(server.running());
                continue;
            }
            server.start();
            client c(path);
            EXPECT_EQ(c.hello().protocol, svc::protocol_version);
            server.stop();
        }
    }
}

TEST(SvcServer, TcpLoopbackListenerServesJobs) {
    auto options = fast_options("");
    options.listen_path.clear();
    options.tcp_port = 0; // ephemeral
    service_server server(std::move(options));
    server.start();
    ASSERT_NE(server.tcp_port(), 0);

    client c("tcp:" + std::to_string(server.tcp_port()));
    const auto manifest = fast_manifest(3);
    const auto records = c.run(manifest);
    const auto expected = offline_records(manifest);
    ASSERT_EQ(records.size(), expected.size());
    for (std::size_t i = 0; i < records.size(); ++i) {
        EXPECT_EQ(records[i], expected[i]);
    }
    server.stop();
}

TEST(SvcServer, StopMidJobShutsDownCleanly) {
    const std::string path = socket_path("stopmid");
    service_server server(fast_options(path));
    server.start();
    client c(path);
    c.submit(1, fast_manifest(200));
    auto e = c.next_event();
    ASSERT_TRUE(e.has_value());
    server.stop(); // cancels the job, notifies, joins -- must not hang
    EXPECT_FALSE(server.running());
}

} // namespace
