// Shard-store merger: fold the per-shard (and per-attempt) record stores a
// worker fleet produced back into one lot store, bit-identical to the
// store a single worker running the whole lot would have written.
//
// The inputs are messy by design -- that is the point of a supervisor that
// retries: an attempt file may have a torn tail (worker killed mid-frame),
// may duplicate another attempt's records (straggler killed after partial
// progress, then retried wholesale), may be empty (shards > units) or may
// arrive in any order.  The merger scans every file leniently (valid
// prefix kept, torn tails counted, never trusted), dedupes by the leading
// u64 record id with payload-equality verification -- two attempts of the
// same unit MUST have produced identical bytes, anything else is a
// determinism bug worth crashing on -- and writes the output in id order.
// Missing ids throw: a lot with holes must fail loudly, not ship.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace bistna::shard {

struct merge_stats {
    std::size_t files = 0;               ///< input files scanned (missing skipped)
    std::size_t torn_files = 0;          ///< inputs with a truncated/corrupt tail
    std::uint64_t records_seen = 0;      ///< valid frames across all inputs
    std::uint64_t duplicates_dropped = 0; ///< verified-identical re-deliveries
    std::uint64_t records_merged = 0;    ///< frames written (== id_count)
    std::uint64_t bytes_written = 0;     ///< final output size
};

/// Merge `shard_files` into a fresh store at `out_path` covering exactly
/// the ids [first_id, first_id + id_count), written in ascending id order.
/// Files that do not exist are skipped (an attempt killed before its
/// create()).  Throws configuration_error on an id outside the range, a
/// duplicate id whose payload differs, or a missing id;
/// serialization_error on an input that is not a record store at all.
/// The returned stats are the merge's only account of what it read and
/// wrote; an attached registry gets the `shard.merge` span alone.
merge_stats merge_shard_stores(const std::vector<std::string>& shard_files,
                               const std::string& out_path,
                               std::uint64_t first_id, std::uint64_t id_count);

} // namespace bistna::shard
