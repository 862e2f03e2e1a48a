#include "telemetry/snapshot_record.hpp"

#include "store/lot_store.hpp"
#include "store/records.hpp"

namespace bistna::telemetry {

store::record to_record(const telemetry_snapshot& snapshot) {
    store::byte_writer w;
    w.u64(snapshot.pid);
    w.str(snapshot.process_name);

    w.u32(static_cast<std::uint32_t>(snapshot.counters.size()));
    for (const counter_value& c : snapshot.counters) {
        w.str(c.name);
        w.u64(c.value);
    }

    w.u32(static_cast<std::uint32_t>(snapshot.histograms.size()));
    for (const histogram_value& h : snapshot.histograms) {
        w.str(h.name);
        w.u64(h.count);
        w.u64(h.sum);
        w.u32(static_cast<std::uint32_t>(h.buckets.size()));
        for (std::uint64_t bucket : h.buckets) {
            w.u64(bucket);
        }
    }

    w.u32(static_cast<std::uint32_t>(snapshot.threads.size()));
    for (const thread_info& t : snapshot.threads) {
        w.u32(t.tid);
        w.str(t.name);
        w.u64(t.dropped_spans);
    }

    w.u32(static_cast<std::uint32_t>(snapshot.spans.size()));
    for (const span_value& s : snapshot.spans) {
        w.u32(s.tid);
        w.str(s.name);
        w.u64(s.start_ns);
        w.u64(s.duration_ns);
        w.u8(static_cast<std::uint8_t>(s.args.size()));
        for (const auto& [key, value] : s.args) {
            w.str(key);
            w.f64(value);
        }
    }

    return {store::record_type::telemetry_snapshot, w.take()};
}

telemetry_snapshot snapshot_from_record(const store::record& r,
                                        std::uint64_t payload_offset) {
    store::expect_type(r, store::record_type::telemetry_snapshot,
                       payload_offset);
    store::byte_reader reader(r.payload, payload_offset);

    telemetry_snapshot snap;
    snap.pid = reader.u64();
    snap.process_name = reader.str();

    const std::uint32_t n_counters = reader.u32();
    reader.require(std::size_t{n_counters} * (4 + 8), "counter list");
    snap.counters.resize(n_counters);
    for (counter_value& c : snap.counters) {
        c.name = reader.str();
        c.value = reader.u64();
    }

    const std::uint32_t n_histograms = reader.u32();
    reader.require(std::size_t{n_histograms} * (4 + 8 + 8 + 4),
                   "histogram list");
    snap.histograms.resize(n_histograms);
    for (histogram_value& h : snap.histograms) {
        h.name = reader.str();
        h.count = reader.u64();
        h.sum = reader.u64();
        const std::uint32_t n_buckets = reader.u32();
        if (n_buckets != histogram_buckets) {
            throw serialization_error("telemetry histogram bucket count " +
                                          std::to_string(n_buckets) +
                                          " != " +
                                          std::to_string(histogram_buckets),
                                      reader.offset());
        }
        reader.require(std::size_t{n_buckets} * 8, "histogram buckets");
        for (std::uint64_t& bucket : h.buckets) {
            bucket = reader.u64();
        }
    }

    const std::uint32_t n_threads = reader.u32();
    reader.require(std::size_t{n_threads} * (4 + 4 + 8), "thread list");
    snap.threads.resize(n_threads);
    for (thread_info& t : snap.threads) {
        t.tid = reader.u32();
        t.name = reader.str();
        t.dropped_spans = reader.u64();
    }

    const std::uint32_t n_spans = reader.u32();
    reader.require(std::size_t{n_spans} * (4 + 4 + 8 + 8 + 1), "span list");
    snap.spans.resize(n_spans);
    for (span_value& s : snap.spans) {
        s.tid = reader.u32();
        s.name = reader.str();
        s.start_ns = reader.u64();
        s.duration_ns = reader.u64();
        const std::uint8_t n_args = reader.u8();
        s.args.resize(n_args);
        for (auto& [key, value] : s.args) {
            key = reader.str();
            value = reader.f64();
        }
    }

    return snap;
}

void write_snapshot_store(const std::string& path,
                          const telemetry_snapshot& snapshot) {
    store::lot_store out = store::lot_store::create(path);
    out.append(to_record(snapshot));
    out.flush();
}

std::vector<telemetry_snapshot> read_snapshot_store(const std::string& path) {
    std::vector<telemetry_snapshot> snapshots;
    store::record_reader reader(path);
    while (auto r = reader.next()) {
        if (r->type == store::record_type::telemetry_snapshot) {
            snapshots.push_back(snapshot_from_record(*r, reader.payload_offset()));
        }
    }
    return snapshots;
}

} // namespace bistna::telemetry
