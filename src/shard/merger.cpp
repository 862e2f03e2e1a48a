#include "shard/merger.hpp"

#include <filesystem>
#include <map>
#include <utility>

#include "common/error.hpp"
#include "store/lot_store.hpp"
#include "store/record_io.hpp"
#include "telemetry/span.hpp"

namespace bistna::shard {

namespace {

/// Output-store flush cadence: the merge is one shot, so per-record
/// flushing would only slow it down.
constexpr std::size_t merge_flush_interval = 256;

/// The merge key: both payload kinds a worker streams (screening_report,
/// acquisition_result) lead with the u64 global id, little-endian.
std::uint64_t leading_id(const store::record& r) {
    if (r.payload.size() < 8) {
        throw configuration_error(
            "shard merge: record payload too short to carry an id");
    }
    std::uint64_t id = 0;
    for (std::size_t b = 0; b < 8; ++b) {
        id |= static_cast<std::uint64_t>(r.payload[b]) << (8 * b);
    }
    return id;
}

/// Lenient scan: every CRC-valid frame of the file's prefix; a torn or
/// corrupt tail stops the scan and sets `torn` instead of throwing.  A
/// file whose 16-byte header is already wrong is not a shard store at all
/// and does throw -- the coordinator never feeds the merger arbitrary
/// files, so that is a wiring bug, not a crash artifact.
std::vector<store::record> lenient_scan(const std::string& path, bool& torn) {
    store::record_reader reader(path);
    std::vector<store::record> records;
    try {
        while (auto r = reader.next()) {
            records.push_back(std::move(*r));
        }
    } catch (const serialization_error&) {
        torn = true;
    }
    return records;
}

} // namespace

merge_stats merge_shard_stores(const std::vector<std::string>& shard_files,
                               const std::string& out_path,
                               std::uint64_t first_id, std::uint64_t id_count) {
    telemetry::trace_span span("shard.merge");
    span.arg("files", static_cast<double>(shard_files.size()));
    span.arg("ids", static_cast<double>(id_count));
    merge_stats stats;
    std::map<std::uint64_t, store::record> by_id;

    for (const auto& path : shard_files) {
        std::error_code ec;
        if (!std::filesystem::exists(path, ec) || ec) {
            continue; // attempt killed before its create() -- nothing to scan
        }
        ++stats.files;
        bool torn = false;
        for (auto& r : lenient_scan(path, torn)) {
            const std::uint64_t id = leading_id(r);
            if (id < first_id || id - first_id >= id_count) {
                throw configuration_error(
                    "shard merge: " + path + " carries record id " +
                    std::to_string(id) + " outside the lot's id range [" +
                    std::to_string(first_id) + ", " +
                    std::to_string(first_id + id_count) + ")");
            }
            ++stats.records_seen;
            const auto it = by_id.find(id);
            if (it != by_id.end()) {
                // A re-delivered unit (retried straggler, duplicate shard
                // delivery).  Deterministic workers make this harmless --
                // and verifiable: the bytes must match exactly, or some
                // worker broke the bit-identity contract.
                if (it->second.type != r.type || it->second.payload != r.payload) {
                    throw configuration_error(
                        "shard merge: conflicting duplicate for record id " +
                        std::to_string(id) + " in " + path +
                        " -- shard outputs are not bit-identical");
                }
                ++stats.duplicates_dropped;
                continue;
            }
            by_id.emplace(id, std::move(r));
        }
        if (torn) {
            ++stats.torn_files;
        }
    }

    // Coverage: every id of the lot, exactly once.
    if (by_id.size() != id_count) {
        for (std::uint64_t id = first_id; id < first_id + id_count; ++id) {
            if (!by_id.contains(id)) {
                throw configuration_error(
                    "shard merge: lot is missing record id " + std::to_string(id) +
                    " (" + std::to_string(id_count - by_id.size()) +
                    " missing in total) -- a shard never delivered");
            }
        }
    }

    store::lot_store out = store::lot_store::create(out_path, {merge_flush_interval});
    for (const auto& [id, r] : by_id) {
        out.append(r);
    }
    out.flush();
    stats.records_merged = out.records_appended();
    stats.bytes_written = out.bytes();
    return stats;
}

} // namespace bistna::shard
