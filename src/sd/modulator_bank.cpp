#include "sd/modulator_bank.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/kernel.hpp"
#include "common/normal.hpp"

namespace bistna::sd {

namespace {

/// Noise tile budget in doubles: 32 KiB, small enough to stay in L1/L2
/// beside the input rows it is consumed with.
constexpr std::size_t noise_tile_doubles = 4096;

// Input layouts (modulator_bank::run's Shape).
constexpr int lane_major = 0; ///< sample j of lane l at xs[j * n_lanes + l]
constexpr int shared = 1;     ///< every lane consumes xs[j]
constexpr int grounded = 2;   ///< x = 0, positive modulation, unit accumulation sign

/// The bank's lane arrays, as the stamped kernels take them.
struct lane_arrays {
    std::size_t n_lanes;
    double* state;
    double* last;
    const double* leak;
    const double* b;
    const double* vref;
    const double* input_offset;
    const double* settle_gain;
    const double* swing;
    const double* cmp_offset;
    const double* cmp_hyst;
    double* clip;
};

/// `samples` lockstep samples over every lane: the sd_modulator::step
/// sequence (comparator decide, input modulation, noise, leaky integrator
/// update, swing clip) with the two per-lane ternaries replaced by exact
/// sign flips -- (last > 0 ? -h : +h) == (-last) * h and (q ? x : -x) ==
/// qsign * x when last/qsign are exactly +/-1 (multiplication by +/-1.0 is
/// exact in IEEE 754) -- so the lane loop is straight-line selects the
/// compiler vectorizes, and every lane stays bit-identical to its scalar
/// counterpart.  Noisy kernels add the tile entry where sd_modulator::step
/// adds its draw.  A noiseless lane's entry is 0.0: m + 0.0 differs from m
/// only for m = -0.0, and subtracting the nonzero bit * vref next gives
/// the same result either way.  The __restrict parameters are the point:
/// without the no-alias promise the compiler must assume acc and the
/// records overlap the lane arrays and gives up on vectorizing.
template <int Shape, bool Noisy>
inline void bank_rows(std::size_t samples, std::size_t n_lanes, const double* __restrict xs,
                      const double* __restrict qsigns, const double* __restrict signs,
                      const double* __restrict noise, double* __restrict acc,
                      double* __restrict state, double* __restrict last,
                      const double* __restrict leak, const double* __restrict b,
                      const double* __restrict vref, const double* __restrict input_offset,
                      const double* __restrict settle_gain, const double* __restrict swing,
                      const double* __restrict cmp_offset, const double* __restrict cmp_hyst,
                      double* __restrict clip) noexcept {
    for (std::size_t j = 0; j < samples; ++j) {
        double qsign = 1.0;
        double sign = 1.0;
        if constexpr (Shape != grounded) {
            qsign = qsigns[j];
            sign = signs[j];
        }
        for (std::size_t l = 0; l < n_lanes; ++l) {
            const double s = state[l];
            const double threshold = cmp_offset[l] + (-last[l]) * cmp_hyst[l] * 0.5;
            const double bit = s >= threshold ? 1.0 : -1.0;
            last[l] = bit;
            double modulated = input_offset[l]; // grounded: (q ? 0.0 : -0.0) + offset
            if constexpr (Shape == lane_major) {
                modulated = qsign * xs[j * n_lanes + l] + input_offset[l];
            } else if constexpr (Shape == shared) {
                modulated = qsign * xs[j] + input_offset[l];
            }
            if constexpr (Noisy) {
                modulated = modulated + noise[j * n_lanes + l];
            }
            const double increment = b[l] * (modulated - bit * vref[l]);
            const double next = leak[l] * s + increment * settle_gain[l];
            const double lo = -swing[l];
            const double hi = swing[l];
            const double clipped = next < lo ? lo : (next > hi ? hi : next);
            clip[l] += clipped != next ? 1.0 : 0.0;
            state[l] = clipped;
            acc[l] += sign * bit;
        }
    }
}

/// target_clones needs plain functions, so bank_rows is stamped once per
/// (input layout, noise) pair, the way state_space.cpp stamps its bank
/// kernels; each clone (common/kernel.hpp) inlines the body at its ISA.
/// The sample loop lives inside the kernel, so a dispatched clone is
/// entered once per block, not once per sample.
template <int Shape, bool Noisy>
void bank_kernel(const lane_arrays& a, std::size_t samples, const double* xs,
                 const double* qsigns, const double* signs, const double* noise,
                 double* acc) noexcept;

#define BISTNA_SD_BANK_KERNEL(shape, noisy)                                                \
    template <>                                                                            \
    BISTNA_KERNEL_CLONES void bank_kernel<shape, noisy>(                                   \
        const lane_arrays& a, std::size_t samples, const double* xs, const double* qsigns, \
        const double* signs, const double* noise, double* acc) noexcept {                  \
        bank_rows<shape, noisy>(samples, a.n_lanes, xs, qsigns, signs, noise, acc,         \
                                a.state, a.last, a.leak, a.b, a.vref, a.input_offset,      \
                                a.settle_gain, a.swing, a.cmp_offset, a.cmp_hyst, a.clip); \
    }

BISTNA_SD_BANK_KERNEL(lane_major, false)
BISTNA_SD_BANK_KERNEL(lane_major, true)
BISTNA_SD_BANK_KERNEL(shared, false)
BISTNA_SD_BANK_KERNEL(shared, true)
BISTNA_SD_BANK_KERNEL(grounded, false)
BISTNA_SD_BANK_KERNEL(grounded, true)

#undef BISTNA_SD_BANK_KERNEL

/// Tile rows 0..samples of a stream every lane sits on (a screening lot's
/// acquisition banks): lane l's entry of row j is rms[l] * units[j], one
/// IEEE multiply, so every clone writes the same bits.  Contiguous rows
/// vectorize where the per-lane scatter does not: with the scatter alone,
/// a cmos035 screening lot's engine throughput read 17% lower (lotbench
/// lot_cmos035, 4-vCPU AVX-512 Xeon, GCC 12).
BISTNA_KERNEL_CLONES void fill_rows(double* __restrict tile, std::size_t n_lanes,
                                    std::size_t samples, const double* __restrict rms,
                                    const double* __restrict units) noexcept {
    for (std::size_t j = 0; j < samples; ++j) {
        double* row = tile + j * n_lanes;
        const double z = units[j];
        for (std::size_t l = 0; l < n_lanes; ++l) {
            row[l] = rms[l] * z;
        }
    }
}

} // namespace

std::size_t modulator_bank::add_lane(const modulator_params& params, bistna::rng noise_rng) {
    params.validate();
    const std::size_t lane = lanes();
    // The tile and the unit block come first: a noisy lane must never run
    // without them.
    if (params.draws_noise() || !noise_tile_.empty()) {
        noise_tile_.resize(std::max(noise_tile_doubles, lane + 1));
    }
    if (params.draws_noise()) {
        const auto stream = std::find_if(streams_.begin(), streams_.end(), [&](const auto& s) {
            return rng_[s.front()] == noise_rng;
        });
        if (stream == streams_.end()) {
            streams_.push_back({lane});
        } else {
            // Two lanes on a stream make a block at most half the tile.
            units_.resize(noise_tile_doubles / 2);
            stream->push_back(lane);
        }
    }

    state_.push_back(0.0);
    last_.push_back(1.0);
    leak_.push_back(params.integrator_leak());
    b_.push_back(params.ci_over_cf);
    vref_.push_back(params.vref);
    input_offset_.push_back(params.input_offset);
    settle_gain_.push_back(1.0 - params.settling_error);
    swing_.push_back(params.integrator_swing);
    cmp_offset_.push_back(params.comparator_offset);
    cmp_hyst_.push_back(params.comparator_hysteresis);
    noise_rms_.push_back(params.noise_rms);
    clip_.push_back(0.0);
    rng_.push_back(noise_rng);
    params_.push_back(params);
    return lane;
}

std::size_t modulator_bank::noise_tile_samples() const noexcept {
    return std::max<std::size_t>(1, noise_tile_doubles / std::max<std::size_t>(1, lanes()));
}

void modulator_bank::draw_noise(std::size_t samples) noexcept {
    const std::size_t n_lanes = lanes();
    double* tile = noise_tile_.data();
    for (std::size_t l = 0; l < n_lanes; ++l) {
        if (!params_[l].draws_noise()) {
            for (std::size_t j = 0; j < samples; ++j) {
                tile[j * n_lanes + l] = 0.0;
            }
        }
    }
    const double* rms = noise_rms_.data();
    for (const std::vector<std::size_t>& stream : streams_) {
        bistna::rng& generator = rng_[stream.front()];
        if (stream.size() == 1) {
            double* column = tile + stream.front();
            const double lane_rms = rms[stream.front()];
            for (std::size_t j = 0; j < samples; ++j) {
                column[j * n_lanes] = lane_rms * standard_normal(generator);
            }
            continue;
        }
        // Every lane of a shared stream would draw these same values, so
        // the block is drawn once and each lane gets its own rms times it.
        double* units = units_.data();
        for (std::size_t j = 0; j < samples; ++j) {
            units[j] = standard_normal(generator);
        }
        if (stream.size() == n_lanes) { // lanes 0..n_lanes in order
            fill_rows(tile, n_lanes, samples, rms, units);
            continue;
        }
        for (std::size_t j = 0; j < samples; ++j) {
            double* row = tile + j * n_lanes;
            const double z = units[j];
            for (const std::size_t l : stream) {
                row[l] = rms[l] * z;
            }
        }
    }
}

template <int Shape>
void modulator_bank::run(const double* xs, const double* qsigns, const double* acc_signs,
                         std::size_t count, double* acc) noexcept {
    const lane_arrays a{lanes(),           state_.data(),        last_.data(),
                        leak_.data(),      b_.data(),            vref_.data(),
                        input_offset_.data(), settle_gain_.data(), swing_.data(),
                        cmp_offset_.data(), cmp_hyst_.data(),     clip_.data()};
    if (noise_tile_.empty()) {
        bank_kernel<Shape, false>(a, count, xs, qsigns, acc_signs, nullptr, acc);
        return;
    }
    // Each block draws exactly its own samples' noise, so after the call
    // every lane's RNG sits where `count` scalar steps would leave it.
    const std::size_t block = noise_tile_samples();
    for (std::size_t done = 0; done < count; done += block) {
        const std::size_t len = std::min(block, count - done);
        draw_noise(len);
        if constexpr (Shape == grounded) {
            bank_kernel<Shape, true>(a, len, nullptr, nullptr, nullptr, noise_tile_.data(), acc);
        } else {
            const std::size_t x_offset = Shape == lane_major ? done * a.n_lanes : done;
            bank_kernel<Shape, true>(a, len, xs + x_offset, qsigns + done, acc_signs + done,
                                     noise_tile_.data(), acc);
        }
    }
}

void modulator_bank::step(const double* inputs, bool modulation_positive,
                          double* bits_out) noexcept {
    // One sample through the production kernel: 0.0 + 1.0 * bit is exactly
    // the bit.
    const double qsign = modulation_positive ? 1.0 : -1.0;
    const double unit = 1.0;
    std::fill_n(bits_out, lanes(), 0.0);
    run<lane_major>(inputs, &qsign, &unit, 1, bits_out);
}

void modulator_bank::accumulate_lane_major(const double* xs, const double* qsigns,
                                           const double* acc_signs, std::size_t count,
                                           double* acc) noexcept {
    run<lane_major>(xs, qsigns, acc_signs, count, acc);
}

void modulator_bank::accumulate_shared(const double* record, const double* qsigns,
                                       const double* acc_signs, std::size_t count,
                                       double* acc) noexcept {
    run<shared>(record, qsigns, acc_signs, count, acc);
}

void modulator_bank::accumulate_grounded(std::size_t count, double* acc) noexcept {
    run<grounded>(nullptr, nullptr, nullptr, count, acc);
}

void modulator_bank::reset_lane(std::size_t lane, double initial_state) {
    BISTNA_EXPECTS(lane < lanes(), "lane index out of range");
    state_[lane] = initial_state;
    last_[lane] = 1.0;
    clip_[lane] = 0.0;
}

double modulator_bank::state(std::size_t lane) const {
    BISTNA_EXPECTS(lane < lanes(), "lane index out of range");
    return state_[lane];
}

std::size_t modulator_bank::clip_events(std::size_t lane) const {
    BISTNA_EXPECTS(lane < lanes(), "lane index out of range");
    return static_cast<std::size_t>(clip_[lane]);
}

const modulator_params& modulator_bank::params(std::size_t lane) const {
    BISTNA_EXPECTS(lane < lanes(), "lane index out of range");
    return params_[lane];
}

} // namespace bistna::sd
