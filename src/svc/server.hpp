// bistna_serverd: screening as a service.
//
// A long-running daemon that listens on a Unix-domain socket (and
// optionally loopback TCP), accepts lot manifests as strict JSON over the
// framed wire protocol (svc/protocol.hpp), and multiplexes any number of
// concurrent client sessions onto ONE shared core::job_queue worker pool.
// Per-die records stream back to each client in global unit order as they
// complete -- bit-identical to the offline `screening_lot --store` path,
// because both sides run the same shard::unit_stream pipeline.  Beside the
// pool the daemon keeps one calibration share for its lifetime
// (core::engine_pool): the first request of a kind pays the grounded
// calibration and later ones reuse its rates.  The share is keyed exactly
// by what the rates depend on (eval::calibration_key), so the bytes do
// not change.
//
// Robustness is the design center, not an afterthought:
//
//   * bounded per-session send queues -- a slow reader backpressures its
//     own jobs (frames stay unsent, results wait in the job channel); a
//     reader that stops draining entirely past `stall_timeout_ms` is shed
//     with a typed `slow_reader` error frame, never allowed to pin server
//     memory;
//   * a global admission queue with per-session in-flight quotas and fair
//     round-robin dispatch across sessions -- one greedy client cannot
//     starve the fleet, and the pool itself claims one task per active job
//     in rotation, so active jobs share workers fairly too;
//   * graceful shedding: when the admission queue is full (or a session
//     exceeds its quota) the submit is answered with a typed `overloaded`
//     error frame immediately -- the daemon never hangs a client;
//   * cooperative cancel: an svc_cancel frame or a client disconnect
//     cancels the session's jobs via job_handle::cancel(); in-flight
//     groups finish and are discarded, unclaimed work is skipped;
//   * idle-session timeouts, and framing errors answered with a typed
//     `bad_frame` error naming the absolute byte offset before the
//     session is closed (a byte stream cannot resync after CRC damage).
//
// Architecture: one event-loop thread owns every session (poll() over the
// listeners, session sockets and a wakeup pipe that job completions
// write to); worker threads only run measurement closures and the tiny
// completion callback.  Cross-thread state is limited to the job_queue's
// own synchronization, the pipe, and the stop/running flags.  The daemon
// counts its sessions and jobs only in the telemetry registry (svc.*),
// which records nothing unless one is attached.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

namespace bistna::svc {

struct server_options {
    /// Unix-domain listen path ("" disables; at least one listener must
    /// be enabled).  The socket file is unlinked on shutdown.
    std::string listen_path;
    /// >= 0: also listen on 127.0.0.1:tcp_port (0 picks an ephemeral
    /// port, readable from tcp_port() after start(); past 65535 start()
    /// throws configuration_error).  Loopback only -- the daemon has no
    /// auth layer.
    int tcp_port = -1;

    /// Worker threads of the shared pool (0 = hardware concurrency).
    std::size_t worker_threads = 0;
    /// Jobs dispatched onto the pool concurrently; admitted requests
    /// beyond this wait in the admission queue.
    std::size_t max_active_jobs = 2;
    /// Admitted-but-undispatched requests across ALL sessions; a submit
    /// past this is shed with a typed `overloaded` error.
    std::size_t admission_capacity = 16;
    /// In-flight (pending + active) requests per session; a submit past
    /// this is shed with `overloaded` while the session survives.
    std::size_t session_quota = 2;

    /// Bytes buffered per session before result streaming pauses
    /// (backpressure).  The job keeps computing; frames simply wait.
    std::size_t send_queue_limit = 4u << 20;
    /// A session whose send queue stays at the limit with nothing
    /// drained for this long is shed (`slow_reader`).  0 disables.
    std::uint64_t stall_timeout_ms = 5000;
    /// Sessions with no traffic and no work for this long are closed
    /// with a typed `idle_timeout` error.  0 disables.
    std::uint64_t idle_timeout_ms = 0;
    /// The longest timeout, 2^63 ns: the loop counts deadlines in
    /// nanoseconds on a 64-bit clock, so start() throws
    /// configuration_error past it instead of letting a deadline wrap.
    static constexpr std::uint64_t max_timeout_ms = (std::uint64_t{1} << 63) / 1000000;
    /// Emit a progress frame every N streamed results (0 = only the
    /// admission-time progress frame).
    std::size_t progress_every = 0;
    /// SO_SNDBUF for accepted sockets (0 keeps the kernel default).
    /// Overload tests shrink it so backpressure appears at test-sized
    /// data volumes instead of megabytes.
    std::size_t socket_send_buffer = 0;
};

class service_server {
public:
    explicit service_server(server_options options);
    /// stop()s if still running.
    ~service_server();

    service_server(const service_server&) = delete;
    service_server& operator=(const service_server&) = delete;

    /// Bind the listeners and launch the event loop.  Throws
    /// configuration_error when no listener is enabled or a bind fails.
    void start();

    /// Cancel outstanding jobs, notify connected sessions with a typed
    /// `shutdown` error, close everything, join the loop.  Idempotent.
    void stop();

    bool running() const noexcept;

    /// The TCP port actually bound (after start(); 0 when disabled).
    std::uint16_t tcp_port() const noexcept;

    const server_options& options() const noexcept;

    struct impl;

private:
    std::unique_ptr<impl> impl_;
};

/// The daemon executable's main: --listen=PATH / --tcp=PORT,
/// --threads/--active-jobs/--admission/--quota/--send-queue-bytes/
/// --stall-timeout-ms/--idle-timeout-ms/--progress-every, plus the
/// --trace=PATH/--metrics telemetry flags every front-end carries.  Runs
/// until SIGINT/SIGTERM.  Returns the process exit code.
int server_main(int argc, char** argv);

} // namespace bistna::svc
