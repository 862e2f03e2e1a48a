// Shared acquisition resource for the lane-major fast paths (extension).
//
// Every lane used to run its own grounded-input offset calibration, which
// is a pure function of a handful of parameters, so the sweep engine keeps
// the outcomes in a thread-safe share: calibration_share transplants the
// post-calibration extractor state between lanes with the same modulator
// params.  Calibration consumes two RNG spawns and produces rates that are
// a pure function of (params, length) for a noiseless modulator, which
// never reads its RNG, and of (params, stream position, length) for a
// noisy one.  So noiseless lanes share one snapshot whatever their seeds,
// noisy lanes share per seed, and restoring is bit-identical to the lane
// calibrating itself: the restore checks the params (and, for a noisy
// lane, the stream position) and then advances the lane's RNG by the two
// spawns.  The lanes that do calibrate run in one bank
// (signature_extractor::calibrate_offset_batch): one grounded channel per
// noiseless lane, both channels per noisy lane.
//
// An engine builds a private share unless its core::engine_pool hands it
// a shared one; the screening daemon keeps one for its lifetime, so a
// request restores the calibrations of the requests before it.  The share
// therefore has a fixed cap and evicts oldest-first: an eviction costs one
// calibration at the next miss, and snapshots already handed out stay
// alive through their shared_ptr.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "eval/signature.hpp"
#include "sd/modulator.hpp"

namespace bistna::eval {

/// Thread-safe map of calibration snapshots keyed on (modulator params,
/// calibration length), plus the seed when the params draw noise.
/// find/store race benignly: the snapshot for a key is unique (a pure
/// function of the key), so double stores are idempotent and a miss merely
/// costs one redundant calibration.
class calibration_share {
public:
    /// Snapshot of a periods x n_per_period calibration for lanes with these
    /// params (and this seed, when they draw noise), or null.
    std::shared_ptr<const calibration_snapshot>
    find(const sd::modulator_params& params, std::uint64_t seed, std::size_t periods,
         std::size_t n_per_period);

    /// Publish a snapshot for the key.  A new key past the size cap evicts
    /// the oldest one -- correctness never depends on a snapshot staying.
    void store(std::uint64_t seed, std::size_t periods, std::size_t n_per_period,
               calibration_snapshot snapshot);

    std::size_t entries() const;

    /// Growth cap: screening shares one evaluator config across a whole
    /// lot, so a handful of entries covers real batches.  Mixed-seed noisy
    /// acquisition batches (a dictionary seeds every item) and a daemon's
    /// stream of requests cycle through it oldest-first, so a new key is
    /// always published and its lane group's duplicates restore it.
    static constexpr std::size_t max_entries = 4096;

private:
    static std::uint64_t key_hash(const sd::modulator_params& params, std::uint64_t seed,
                                  std::size_t periods, std::size_t n_per_period);

    mutable std::mutex mutex_;
    std::unordered_map<std::uint64_t, std::shared_ptr<const calibration_snapshot>> entries_;
    std::deque<std::uint64_t> insertion_order_;
};

} // namespace bistna::eval
