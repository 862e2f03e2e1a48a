// Process-wide metric registry: named counters and log-2 latency
// histograms, backed by per-thread shards so the hot path is a relaxed
// atomic bump on memory only this thread writes -- no locks, no false
// sharing with other threads' cells.
//
// Lifecycle: metric names are interned once (usually into a static) with
// counter_id()/histogram_id(); recording through an id is a no-op unless a
// metric_registry is attach()ed.  The attached/detached state is a single
// global epoch counter (even = detached, odd = attached); each thread
// caches {epoch, shard*} in a thread_local and revalidates with one
// acquire load per record, so the detached fast path is load + predictable
// branch.  aggregate happens only in snapshot(), which sums every thread's
// shard under the registry mutex.
//
// Spans: emit_span() appends a fixed-size event into the calling thread's
// ring (single writer, published with a release store of the count;
// snapshot reads it with an acquire load -- TSan-clean by construction).
// Span and arg names must be string literals (or otherwise outlive the
// registry); only pointers are stored on the hot path.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "telemetry/snapshot.hpp"

namespace bistna::telemetry {

using metric_id = std::uint32_t;

/// Hard caps on distinct metric names per process.  Interning past the cap
/// throws; the taxonomy is meant to be small and static.
inline constexpr std::size_t max_counters = 192;
inline constexpr std::size_t max_histograms = 64;

/// Intern a counter name -> stable id.  `name` must outlive the process
/// (pass a literal).  Same name always returns the same id.
metric_id counter_id(const char* name);
metric_id histogram_id(const char* name);

const std::string& counter_name(metric_id id);
const std::string& histogram_name(metric_id id);

/// True when a registry is currently attached.  One relaxed-ish load;
/// callers may use it to skip clock reads entirely when detached.
bool attached() noexcept;

/// Bump a counter / record a histogram sample.  No-ops when detached.
/// Never throws into the caller (telemetry failure must not fail the
/// measurement).
void counter_add(metric_id id, std::uint64_t n = 1) noexcept;
void histogram_record(metric_id id, std::uint64_t value) noexcept;

/// Monotonic nanoseconds (steady_clock).  On Linux this is
/// CLOCK_MONOTONIC, which is per-boot and therefore comparable across
/// processes on one machine -- the property the cross-process trace
/// depends on.
std::uint64_t now_ns() noexcept;

/// Name the calling thread in snapshots and traces.  Takes effect
/// retroactively for the thread's current shard and for future bindings.
void set_thread_name(std::string name);

/// Record a completed span with up to two numeric args.  `name` and the
/// arg keys must be string literals.  No-op when detached.
void emit_span(const char* name, std::uint64_t start_ns, std::uint64_t duration_ns,
               const char* key0 = nullptr, double val0 = 0.0,
               const char* key1 = nullptr, double val1 = 0.0) noexcept;

struct registry_options {
    /// Span events retained per thread; further spans are counted as
    /// dropped rather than wrapping (a truncated trace that says so beats
    /// a silently rewritten one).
    std::size_t span_ring_capacity = 16384;
};

/// Owner of all recorded telemetry.  At most one registry may be attached
/// at a time; attach/detach are heavyweight (mutex + epoch bump) and meant
/// for process start/end or test setup, not the hot path.
class metric_registry {
public:
    explicit metric_registry(registry_options options = {});
    ~metric_registry();

    metric_registry(const metric_registry&) = delete;
    metric_registry& operator=(const metric_registry&) = delete;

    /// Make this the process-wide sink.  Throws precondition_error if any
    /// registry (including this one) is already attached.
    void attach();
    /// Stop collecting into this registry.  Idempotent.  Recorded data
    /// stays readable via snapshot().
    void detach();
    bool is_attached() const noexcept;

    void set_process_name(std::string name);

    /// Aggregate every thread's shard into one frozen snapshot.  Safe to
    /// call while attached and while other threads record (counter sums
    /// are per-cell atomic reads; spans use the publish protocol above).
    telemetry_snapshot snapshot() const;

    /// Incomplete outside metrics.cpp; public only so the file-scope
    /// attach-state globals there can hold a shared_ptr to it.
    struct impl;

private:
    std::shared_ptr<impl> impl_;
};

/// RAII attach/detach.
class registry_scope {
public:
    explicit registry_scope(metric_registry& registry) : registry_(registry) {
        registry_.attach();
    }
    ~registry_scope() { registry_.detach(); }

    registry_scope(const registry_scope&) = delete;
    registry_scope& operator=(const registry_scope&) = delete;

private:
    metric_registry& registry_;
};

} // namespace bistna::telemetry
