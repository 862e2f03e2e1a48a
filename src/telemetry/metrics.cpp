#include "telemetry/metrics.hpp"

#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <mutex>
#include <vector>

#include "common/error.hpp"

namespace bistna::telemetry {

namespace {

// ---- name interning -------------------------------------------------------
//
// Names live for the process; ids are indices into these tables.  Interning
// is rare (static initializers), so one mutex is fine.

struct intern_table {
    std::mutex mutex;
    std::vector<std::string> names;

    metric_id intern(const char* name, std::size_t cap, const char* kind) {
        BISTNA_EXPECTS(name != nullptr && *name != '\0',
                       "metric name must be non-empty");
        std::lock_guard<std::mutex> lock(mutex);
        for (std::size_t i = 0; i < names.size(); ++i) {
            if (names[i] == name) {
                return static_cast<metric_id>(i);
            }
        }
        if (names.size() >= cap) {
            throw precondition_error(std::string("too many distinct ") + kind +
                                     " names (cap " + std::to_string(cap) +
                                     "): " + name);
        }
        names.emplace_back(name);
        return static_cast<metric_id>(names.size() - 1);
    }

    const std::string& name_of(metric_id id) {
        std::lock_guard<std::mutex> lock(mutex);
        BISTNA_EXPECTS(id < names.size(), "metric id out of range");
        return names[id];
    }

    std::size_t size() {
        std::lock_guard<std::mutex> lock(mutex);
        return names.size();
    }
};

intern_table& counters_table() {
    static intern_table table;
    return table;
}

intern_table& histograms_table() {
    static intern_table table;
    return table;
}

// ---- live cells -----------------------------------------------------------

struct hist_cell {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::array<std::atomic<std::uint64_t>, histogram_buckets> buckets{};
};

// One span as stored in the ring: pointers only, no ownership.  Names and
// keys must be literals (enforced by the emit_span contract).
struct span_event {
    const char* name = nullptr;
    std::uint64_t start_ns = 0;
    std::uint64_t duration_ns = 0;
    std::array<const char*, 2> keys{};
    std::array<double, 2> vals{};
};

// Everything one thread writes.  Counters/histogram cells are written with
// relaxed atomics (only sums matter); the span ring is single-writer and
// published via a release store of span_count, so snapshot() reading with
// acquire sees fully written events.
struct thread_shard {
    std::uint32_t tid = 0;
    std::string name;
    std::array<std::atomic<std::uint64_t>, max_counters> counters{};
    std::unique_ptr<hist_cell[]> histograms{new hist_cell[max_histograms]};
    std::vector<span_event> spans;
    std::atomic<std::uint64_t> span_count{0};
    std::atomic<std::uint64_t> dropped_spans{0};
};

} // namespace

struct metric_registry::impl {
    registry_options options;
    mutable std::mutex mutex;
    std::string process_name = "bistna";
    // Shards are created on first record per thread and never removed while
    // the registry lives -- a thread may exit before snapshot(), so the
    // registry (not the thread) owns them.
    std::vector<std::unique_ptr<thread_shard>> shards;
};

namespace {

// ---- global attach state --------------------------------------------------
//
// g_epoch is the only thing the hot path reads: even = detached, odd =
// attached.  Each attach/detach bumps it, invalidating every thread's
// cached binding.

std::atomic<std::uint64_t> g_epoch{0};
std::mutex g_registry_mutex;
std::shared_ptr<metric_registry::impl> g_active;
std::atomic<std::uint32_t> g_next_tid{1};

struct thread_binding {
    std::uint64_t epoch = 0;
    thread_shard* shard = nullptr;
    // Keeps the shard's owning impl alive while this thread might still
    // write through the raw pointer (detach drops g_active, but the epoch
    // check means no writes happen after this binding goes stale).
    std::shared_ptr<metric_registry::impl> owner;
    std::uint32_t tid = 0; ///< stable per OS thread across re-attaches
    std::string thread_name;
};

thread_binding& binding() {
    thread_local thread_binding b;
    return b;
}

// Slow path: (re)bind this thread to the currently attached registry, or
// cache "detached" for the current epoch.  Returns the shard or nullptr.
thread_shard* bind_thread(thread_binding& b) {
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    const std::uint64_t epoch = g_epoch.load(std::memory_order_acquire);
    b.epoch = epoch;
    b.owner.reset();
    b.shard = nullptr;
    if ((epoch & 1u) == 0 || g_active == nullptr) {
        return nullptr;
    }
    if (b.tid == 0) {
        b.tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
    }
    auto shard = std::make_unique<thread_shard>();
    shard->tid = b.tid;
    shard->name = b.thread_name.empty() ? "thread-" + std::to_string(b.tid)
                                        : b.thread_name;
    shard->spans.resize(g_active->options.span_ring_capacity);
    thread_shard* raw = shard.get();
    {
        std::lock_guard<std::mutex> shard_lock(g_active->mutex);
        g_active->shards.push_back(std::move(shard));
    }
    b.owner = g_active;
    b.shard = raw;
    return raw;
}

// Hot path: one acquire load; even epoch means detached and we return
// immediately, matching epoch means the cached shard is still valid.
inline thread_shard* bound_shard() {
    const std::uint64_t epoch = g_epoch.load(std::memory_order_acquire);
    if ((epoch & 1u) == 0) {
        return nullptr;
    }
    thread_binding& b = binding();
    if (b.epoch == epoch) {
        return b.shard;
    }
    return bind_thread(b);
}

} // namespace

metric_id counter_id(const char* name) {
    return counters_table().intern(name, max_counters, "counter");
}

metric_id histogram_id(const char* name) {
    return histograms_table().intern(name, max_histograms, "histogram");
}

const std::string& counter_name(metric_id id) {
    return counters_table().name_of(id);
}

const std::string& histogram_name(metric_id id) {
    return histograms_table().name_of(id);
}

bool attached() noexcept {
    return (g_epoch.load(std::memory_order_acquire) & 1u) != 0;
}

void counter_add(metric_id id, std::uint64_t n) noexcept {
    try {
        thread_shard* shard = bound_shard();
        if (shard == nullptr || id >= max_counters) {
            return;
        }
        shard->counters[id].fetch_add(n, std::memory_order_relaxed);
    } catch (...) {
        // Telemetry must never throw into the measurement.
    }
}

void histogram_record(metric_id id, std::uint64_t value) noexcept {
    try {
        thread_shard* shard = bound_shard();
        if (shard == nullptr || id >= max_histograms) {
            return;
        }
        hist_cell& cell = shard->histograms[id];
        cell.count.fetch_add(1, std::memory_order_relaxed);
        cell.sum.fetch_add(value, std::memory_order_relaxed);
        cell.buckets[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
    } catch (...) {
    }
}

std::uint64_t now_ns() noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void set_thread_name(std::string name) {
    thread_binding& b = binding();
    b.thread_name = std::move(name);
    if (b.shard != nullptr && b.owner != nullptr) {
        std::lock_guard<std::mutex> lock(b.owner->mutex);
        b.shard->name = b.thread_name;
    }
}

void emit_span(const char* name, std::uint64_t start_ns, std::uint64_t duration_ns,
               const char* key0, double val0, const char* key1,
               double val1) noexcept {
    try {
        thread_shard* shard = bound_shard();
        if (shard == nullptr) {
            return;
        }
        const std::uint64_t n = shard->span_count.load(std::memory_order_relaxed);
        if (n >= shard->spans.size()) {
            shard->dropped_spans.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        span_event& ev = shard->spans[n];
        ev.name = name;
        ev.start_ns = start_ns;
        ev.duration_ns = duration_ns;
        ev.keys = {key0, key1};
        ev.vals = {val0, val1};
        // Publish: snapshot() acquire-loads span_count, so the event write
        // above happens-before any read of it.
        shard->span_count.store(n + 1, std::memory_order_release);
    } catch (...) {
    }
}

metric_registry::metric_registry(registry_options options)
    : impl_(std::make_shared<impl>()) {
    BISTNA_EXPECTS(options.span_ring_capacity > 0,
                   "span_ring_capacity must be positive");
    impl_->options = options;
}

metric_registry::~metric_registry() { detach(); }

void metric_registry::attach() {
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    BISTNA_EXPECTS(g_active == nullptr,
                   "a metric_registry is already attached");
    g_active = impl_;
    // Even -> odd: threads re-bind to this registry on their next record.
    g_epoch.fetch_add(1, std::memory_order_release);
}

void metric_registry::detach() {
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    if (g_active != impl_) {
        return;
    }
    g_active.reset();
    // Odd -> even: the hot path sees "detached" on its next epoch load.
    g_epoch.fetch_add(1, std::memory_order_release);
}

bool metric_registry::is_attached() const noexcept {
    std::lock_guard<std::mutex> lock(g_registry_mutex);
    return g_active == impl_;
}

void metric_registry::set_process_name(std::string name) {
    std::lock_guard<std::mutex> lock(impl_->mutex);
    impl_->process_name = std::move(name);
}

telemetry_snapshot metric_registry::snapshot() const {
    telemetry_snapshot snap;
    snap.pid = static_cast<std::uint64_t>(::getpid());

    const std::size_t n_counters = counters_table().size();
    const std::size_t n_histograms = histograms_table().size();
    snap.counters.resize(n_counters);
    for (std::size_t i = 0; i < n_counters; ++i) {
        snap.counters[i].name = counter_name(static_cast<metric_id>(i));
    }
    snap.histograms.resize(n_histograms);
    for (std::size_t i = 0; i < n_histograms; ++i) {
        snap.histograms[i].name = histogram_name(static_cast<metric_id>(i));
    }

    std::lock_guard<std::mutex> lock(impl_->mutex);
    snap.process_name = impl_->process_name;
    for (const auto& shard : impl_->shards) {
        for (std::size_t i = 0; i < n_counters; ++i) {
            snap.counters[i].value +=
                shard->counters[i].load(std::memory_order_relaxed);
        }
        for (std::size_t i = 0; i < n_histograms; ++i) {
            const hist_cell& cell = shard->histograms[i];
            histogram_value& out = snap.histograms[i];
            out.count += cell.count.load(std::memory_order_relaxed);
            out.sum += cell.sum.load(std::memory_order_relaxed);
            for (std::size_t k = 0; k < histogram_buckets; ++k) {
                out.buckets[k] += cell.buckets[k].load(std::memory_order_relaxed);
            }
        }

        // Re-attach creates a fresh shard per thread under the same tid;
        // merge thread rows so dropped counts accumulate.
        thread_info* info = nullptr;
        for (thread_info& t : snap.threads) {
            if (t.tid == shard->tid) {
                info = &t;
                break;
            }
        }
        if (info == nullptr) {
            snap.threads.push_back({shard->tid, shard->name, 0});
            info = &snap.threads.back();
        } else if (!shard->name.empty()) {
            info->name = shard->name;
        }
        info->dropped_spans +=
            shard->dropped_spans.load(std::memory_order_relaxed);

        const std::uint64_t published =
            shard->span_count.load(std::memory_order_acquire);
        for (std::uint64_t i = 0; i < published; ++i) {
            const span_event& ev = shard->spans[i];
            span_value out;
            out.name = ev.name;
            out.tid = shard->tid;
            out.start_ns = ev.start_ns;
            out.duration_ns = ev.duration_ns;
            for (std::size_t a = 0; a < ev.keys.size(); ++a) {
                if (ev.keys[a] != nullptr) {
                    out.args.emplace_back(ev.keys[a], ev.vals[a]);
                }
            }
            snap.spans.push_back(std::move(out));
        }
    }
    return snap;
}

} // namespace bistna::telemetry
