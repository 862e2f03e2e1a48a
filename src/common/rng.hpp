// Deterministic pseudo-random number generation.
//
// Every stochastic element of the simulation (kT/C noise, capacitor
// mismatch, comparator offset, initial integrator states) draws from an
// explicitly seeded generator so experiments are exactly reproducible.
// The engine is xoshiro256** (Blackman & Vigna), seeded via splitmix64.
// The sigma-delta modulator's per-sample noise draws with
// bistna::standard_normal (common/normal.hpp), a ziggurat whose bits do not
// depend on the host libm; everything else normal uses gaussian() below.
#pragma once

#include <array>
#include <cstdint>

namespace bistna {

/// xoshiro256** engine with convenience distributions.
class rng {
public:
    /// Seeded generator; the same seed always yields the same stream.
    explicit rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

    /// Raw 64 random bits.
    std::uint64_t next_u64() noexcept;

    /// Uniform double in [0, 1).
    double uniform() noexcept;

    /// Uniform double in [lo, hi).
    double uniform(double lo, double hi) noexcept;

    /// Uniform integer in [0, n); n must be > 0.
    std::uint64_t uniform_int(std::uint64_t n) noexcept;

    /// Standard normal deviate (Box-Muller with caching).  Its bits follow
    /// the host libm's log, sin and cos; process draws, op-amp noise and the
    /// baseline instruments use it.
    double gaussian() noexcept;

    /// Normal deviate with the given mean and standard deviation.
    double gaussian(double mean, double stddev) noexcept;

    /// Bernoulli trial with probability p of returning true.
    bool bernoulli(double p) noexcept;

    /// Derive an independent child generator (for per-run streams).
    rng spawn() noexcept;

    /// Exact stream-position equality (state and Box-Muller cache): two
    /// equal generators produce identical streams forever, so a noisy
    /// eval::calibration_key compares its stream this way.
    bool operator==(const rng&) const noexcept = default;

private:
    std::array<std::uint64_t, 4> state_{};
    double cached_gaussian_ = 0.0;
    bool has_cached_gaussian_ = false;
};

/// Seed of the `stream_id`-th independent child stream rooted at `seed`
/// (splitmix64 finalizer over the tagged root, the same construction as
/// core::sweep_item_seed).  Unlike chained rng::spawn() calls, two distinct
/// stream ids never alias each other's stream, so consumers that need
/// several uncorrelated streams from one seed (process draw vs. op-amp
/// noise, per-item batch seeds) tag each use with its own id.
std::uint64_t derive_stream_seed(std::uint64_t seed, std::uint64_t stream_id) noexcept;

} // namespace bistna
