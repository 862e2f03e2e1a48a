#include "sd/modulator_bank.hpp"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/error.hpp"
#include "common/kernel.hpp"
#include "common/normal.hpp"

namespace bistna::sd {

namespace {

/// Noise tile budget in doubles: 32 KiB, small enough to stay in L1/L2
/// beside the input rows it is consumed with.
constexpr std::size_t noise_tile_doubles = 4096;

/// Doubles the tile holds past its last row: a partial vector's noise load
/// reads a whole vector, up to 7 doubles past its lanes at the widest
/// clone (8 doubles).  The cells read that way feed inert lanes only.
constexpr std::size_t noise_tile_slack = 8;

// Input layouts (modulator_bank::run's Shape).
constexpr int lane_major = 0; ///< sample j of lane l at xs[j * n_lanes + l]
constexpr int shared = 1;     ///< every lane consumes xs[j]
constexpr int grounded = 2;   ///< x = 0, positive modulation, unit accumulation sign

/// One bank's side of a kernel call: the running values of its lanes, its
/// counters, its modulation signs and its noise tile.
struct channel {
    double* state;
    double* last;
    double* clip;
    double* acc;
    const double* qsigns; ///< `period` entries; null when grounded
    const double* noise;  ///< null when the banks are noiseless
};

/// One kernel call: `samples` samples of one input layout through one bank,
/// or through two banks whose lanes hold equal params and so share the
/// lane constants (the first bank's arrays).  The modulation and counter
/// signs repeat every `period` samples: sample j of the call reads entry
/// (phase + j) mod period of each sign table.
struct kernel_call {
    int shape;
    int channels; ///< 1 or 2
    bool noisy;
    std::size_t n_lanes;
    std::size_t samples;
    std::size_t period;
    std::size_t phase;   ///< < period
    const double* xs;    ///< null when grounded
    const double* signs; ///< counter signs, `period` entries; null when grounded
    const double* leak;
    const double* b;
    const double* vref;
    const double* input_offset;
    const double* settle_gain;
    const double* swing;
    const double* cmp_offset;
    const double* cmp_hyst;
    channel ch[2];
};

/// A GCC vector of W doubles.  A member typedef, not an alias template:
/// GCC drops vector_size from an alias template whose size is dependent.
template <int W>
struct simd {
    typedef double type __attribute__((vector_size(W * sizeof(double))));
};

// The helpers take vectors by reference: passing or returning a 32- or
// 64-byte vector by value from a function compiled below AVX or AVX-512
// changes the ABI, which GCC reports as -Wpsabi.

/// out = src[0 .. n) followed by zeros.  A zero lane is inert: with b = 0
/// and swing = 0 its state stays 0 whatever it reads.
template <int W, typename V>
[[gnu::always_inline]] inline void load_lanes(V& out, const double* src, std::size_t n) noexcept {
    if (n == W) {
        std::memcpy(&out, src, sizeof out);
        return;
    }
    out = V{};
    for (std::size_t i = 0; i < n; ++i) {
        out[i] = src[i];
    }
}

/// dst[0 .. n) = in's first n lanes.
template <int W, typename V>
[[gnu::always_inline]] inline void store_lanes(double* dst, const V& in, std::size_t n) noexcept {
    if (n == W) {
        std::memcpy(dst, &in, sizeof in);
        return;
    }
    for (std::size_t i = 0; i < n; ++i) {
        dst[i] = in[i];
    }
}

template <typename V, std::size_t... I>
[[gnu::always_inline]] inline void load_prefix(V& out, const double* src,
                                               std::index_sequence<I...>) noexcept {
    out = V{src[I]...};
}

/// out = {src[0], .., src[n - 1], 0, ..} for n = 1 .. sizeof...(N): a
/// partial vector's lane-major inputs, read element by element so no read
/// passes the end of the record.  One fixed-length read per n: a loop over
/// a runtime n goes through memory, and a one-lane pair ran 3x slower so.
template <typename V, std::size_t... N>
[[gnu::always_inline]] inline void load_row_prefix(V& out, const double* src, std::size_t n,
                                                   std::index_sequence<N...>) noexcept {
    ((n == N + 1 ? load_prefix(out, src, std::make_index_sequence<N + 1>{}) : void()), ...);
}

/// `samples` lockstep samples over the lanes [first, first + (V - 1) * W +
/// tail) of C banks, in W-double vectors: the sd_modulator::step sequence
/// (comparator decide, input modulation, noise, leaky integrator update,
/// swing clip), every lane bit-identical to its scalar counterpart.  The
/// per-lane ternaries become exact vector forms:
///   * the comparator threshold cmp_offset + (last > 0 ? -h : +h) * 0.5 is
///     cmp_offset + last * ((-h) * 0.5): with last exactly +/-1 both
///     products are exact sign flips of h, and halving rounds a value and
///     its negation to negated results;
///   * (q ? x : -x) is qsign * x, qsign being exactly +/-1;
///   * bit * vref, the DAC feedback, is selected as vref or -vref
///     (multiplication by +/-1.0 is exact in IEEE 754);
///   * clip + (clipped != next ? 1.0 : 0.0) adds 0.0 to a count that is
///     never -0.0, so it is the count or the count plus one.
/// Noisy blocks add the tile entry where sd_modulator::step adds its draw.
/// A noiseless lane's entry is 0.0: m + 0.0 differs from m only for
/// m = -0.0, and subtracting the nonzero bit * vref next gives the same
/// result either way.
///
/// The block's running values (state, last decision, clip count,
/// accumulator) are locals for the whole sample loop, loaded once and
/// stored once, and each sample's input and signs are loaded once for
/// every bank.  The last vector holds `tail` real lanes (1 .. W); the rest
/// of it is inert zero lanes, and only the real lanes are written back.
template <int W, int V, int Shape, bool Noisy, int C>
[[gnu::always_inline]] inline void run_block(const kernel_call& k, std::size_t first,
                                             std::size_t tail) noexcept {
    using vec = typename simd<W>::type;
    const std::size_t n_lanes = k.n_lanes;
    vec leak[V], b[V], vref[V], input_offset[V], settle_gain[V], lo[V], hi[V];
    vec cmp_offset[V], half_hyst_down[V]; ///< (-hyst) * 0.5
    vec state[C][V], last[C][V], clip[C][V], acc[C][V];
#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) {
        const std::size_t lane = first + v * W;
        const std::size_t width = v + 1 < V ? W : tail;
        load_lanes<W>(leak[v], k.leak + lane, width);
        load_lanes<W>(b[v], k.b + lane, width);
        load_lanes<W>(vref[v], k.vref + lane, width);
        load_lanes<W>(input_offset[v], k.input_offset + lane, width);
        load_lanes<W>(settle_gain[v], k.settle_gain + lane, width);
        load_lanes<W>(hi[v], k.swing + lane, width);
        lo[v] = -hi[v];
        load_lanes<W>(cmp_offset[v], k.cmp_offset + lane, width);
        load_lanes<W>(half_hyst_down[v], k.cmp_hyst + lane, width);
        half_hyst_down[v] = -half_hyst_down[v] * 0.5;
#pragma GCC unroll 2
        for (int c = 0; c < C; ++c) {
            load_lanes<W>(state[c][v], k.ch[c].state + lane, width);
            load_lanes<W>(last[c][v], k.ch[c].last + lane, width);
            load_lanes<W>(clip[c][v], k.ch[c].clip + lane, width);
            load_lanes<W>(acc[c][v], k.ch[c].acc + lane, width);
        }
    }
    const vec one = vec{} + 1.0;
    const vec minus_one = vec{} - 1.0;

    std::size_t at = k.phase; // sign-table entry of sample j
    for (std::size_t j = 0; j < k.samples; ++j) {
        vec x[V] = {}; // zeroed: GCC cannot see that the partial read's fold always assigns
        double sign = 1.0;
        if constexpr (Shape == lane_major) {
#pragma GCC unroll 8
            for (int v = 0; v < V; ++v) {
                const double* row = k.xs + j * n_lanes + first + v * W;
                if (v + 1 < V || tail == W) {
                    std::memcpy(&x[v], row, sizeof x[v]);
                } else {
                    load_row_prefix(x[v], row, tail, std::make_index_sequence<W - 1>{});
                }
            }
        }
        if constexpr (Shape != grounded) {
            sign = k.signs[at];
        }
#pragma GCC unroll 2
        for (int c = 0; c < C; ++c) {
            double qsign = 1.0;
            double qx = 0.0; // shared: qsign * xs[j], one product for every lane
            if constexpr (Shape != grounded) {
                qsign = k.ch[c].qsigns[at];
            }
            if constexpr (Shape == shared) {
                qx = qsign * k.xs[j];
            }
#pragma GCC unroll 8
            for (int v = 0; v < V; ++v) {
                const vec s = state[c][v];
                const vec threshold = cmp_offset[v] + last[c][v] * half_hyst_down[v];
                const auto decide_up = s >= threshold;
                const vec bit = decide_up ? one : minus_one;
                last[c][v] = bit;
                vec modulated = input_offset[v]; // grounded: (q ? 0.0 : -0.0) + offset
                if constexpr (Shape == lane_major) {
                    modulated = qsign * x[v] + input_offset[v];
                } else if constexpr (Shape == shared) {
                    modulated = qx + input_offset[v];
                }
                if constexpr (Noisy) {
                    vec noise;
                    std::memcpy(&noise, k.ch[c].noise + j * n_lanes + first + v * W,
                                sizeof noise);
                    modulated = modulated + noise;
                }
                const vec feedback = decide_up ? vref[v] : -vref[v];
                const vec increment = b[v] * (modulated - feedback);
                const vec next = leak[v] * s + increment * settle_gain[v];
                const vec clipped = next < lo[v] ? lo[v] : (next > hi[v] ? hi[v] : next);
                clip[c][v] = clipped != next ? clip[c][v] + one : clip[c][v];
                state[c][v] = clipped;
                acc[c][v] += sign * bit;
            }
        }
        if (++at == k.period) {
            at = 0;
        }
    }

#pragma GCC unroll 8
    for (int v = 0; v < V; ++v) {
        const std::size_t lane = first + v * W;
        const std::size_t width = v + 1 < V ? W : tail;
#pragma GCC unroll 2
        for (int c = 0; c < C; ++c) {
            store_lanes<W>(k.ch[c].state + lane, state[c][v], width);
            store_lanes<W>(k.ch[c].last + lane, last[c][v], width);
            store_lanes<W>(k.ch[c].clip + lane, clip[c][v], width);
            store_lanes<W>(k.ch[c].acc + lane, acc[c][v], width);
        }
    }
}

/// The lanes left after the whole blocks: one block of as many vectors as
/// they need, its last vector padded with inert lanes.
template <int W, int Shape, bool Noisy, int C, std::size_t... U>
[[gnu::always_inline]] inline void run_rest(const kernel_call& k, std::size_t first,
                                            std::size_t vectors, std::size_t tail,
                                            std::index_sequence<U...>) noexcept {
    ((vectors == U + 1 ? run_block<W, U + 1, Shape, Noisy, C>(k, first, tail) : void()), ...);
}

/// Vectors per register block.  A vector's sample-to-sample dependency
/// chain (decide, feedback, integrate, clip) is long, so a block steps at
/// least four independent vector chains (vectors x channels) to keep the
/// floating-point ports busy: 4 vectors of one bank (32 lanes under
/// AVX-512, 16 under AVX2, 8 at the baseline) and of each bank of a pair,
/// except a pair under AVX-512, whose block is 2 vectors (16 lanes) of each
/// bank.  Under AVX2 a 16-lane pair block ran a noisy pair faster than an
/// 8-lane one and a noiseless pair as fast; at the baseline a prototype's
/// 8-vector (16-lane) blocks ran the grounded and one-bank calls slower
/// than 4: with 16 xmm registers the larger block spills.
template <int W, int C>
inline constexpr int block_vectors = W == 8 && C == 2 ? 2 : 4;

/// Every lane of the call, in blocks of block_vectors vectors of W doubles.
template <int W, int Shape, bool Noisy, int C>
[[gnu::always_inline]] inline void run_lanes(const kernel_call& k) noexcept {
    constexpr int V = block_vectors<W, C>;
    std::size_t first = 0;
    for (; first + W * V <= k.n_lanes; first += W * V) {
        run_block<W, V, Shape, Noisy, C>(k, first, W);
    }
    const std::size_t rest = k.n_lanes - first;
    if (rest != 0) {
        const std::size_t vectors = (rest + W - 1) / W;
        run_rest<W, Shape, Noisy, C>(k, first, vectors, rest - (vectors - 1) * W,
                                     std::make_index_sequence<V>{});
    }
}

template <int W, int Shape, int C>
[[gnu::always_inline]] inline void run_channels(const kernel_call& k) noexcept {
    if (k.noisy) {
        run_lanes<W, Shape, true, C>(k);
    } else {
        run_lanes<W, Shape, false, C>(k);
    }
}

/// The kernel at W doubles per vector.
template <int W>
[[gnu::always_inline]] inline void run_kernel(const kernel_call& k) noexcept {
    switch (k.shape) {
    case lane_major:
        if (k.channels == 2) {
            run_channels<W, lane_major, 2>(k);
        } else {
            run_channels<W, lane_major, 1>(k);
        }
        break;
    case shared: // only the pair entries read a broadcast record
        run_channels<W, shared, 2>(k);
        break;
    default: // a calibration bank runs alone
        run_channels<W, grounded, 1>(k);
        break;
    }
}

// One definition per ISA, each instantiating the kernel at its own vector
// width (common/kernel.hpp); the sample loop lives inside, so a dispatched
// definition is entered once per noise block, not once per sample.
#if BISTNA_HAVE_KERNEL_CLONES
BISTNA_KERNEL_BASELINE void bank_kernel(const kernel_call& k) noexcept { run_kernel<2>(k); }
BISTNA_KERNEL_AVX2 void bank_kernel(const kernel_call& k) noexcept { run_kernel<4>(k); }
BISTNA_KERNEL_X86_64_V4 void bank_kernel(const kernel_call& k) noexcept { run_kernel<8>(k); }
#else
void bank_kernel(const kernel_call& k) noexcept { run_kernel<kernel_fallback_doubles>(k); }
#endif

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
        noise_tile_.resize(std::max(noise_tile_doubles, lane + 1) + noise_tile_slack);
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
void modulator_bank::run(modulator_bank* pair, const double* xs, const double* qsigns,
                         const double* pair_qsigns, const double* acc_signs, std::size_t period,
                         std::size_t count, double* acc, double* pair_acc) noexcept {
    kernel_call k{Shape,
                  pair == nullptr ? 1 : 2,
                  !noise_tile_.empty(),
                  lanes(),
                  count,
                  period,
                  0,
                  xs,
                  acc_signs,
                  leak_.data(),
                  b_.data(),
                  vref_.data(),
                  input_offset_.data(),
                  settle_gain_.data(),
                  swing_.data(),
                  cmp_offset_.data(),
                  cmp_hyst_.data(),
                  {{state_.data(), last_.data(), clip_.data(), acc, qsigns, noise_tile_.data()},
                   {}}};
    if (pair != nullptr) {
        k.ch[1] = {pair->state_.data(), pair->last_.data(), pair->clip_.data(),
                   pair_acc,            pair_qsigns,        pair->noise_tile_.data()};
    }
    if (!k.noisy) {
        bank_kernel(k);
        return;
    }
    // Each block draws exactly its own samples' noise, so after the call
    // every lane's RNG sits where `count` scalar steps would leave it.  A
    // pair's banks draw from their own streams into their own tiles, so the
    // order they draw in changes no draw.
    const std::size_t block = noise_tile_samples();
    for (std::size_t done = 0; done < count; done += block) {
        k.samples = std::min(block, count - done);
        draw_noise(k.samples);
        if (pair != nullptr) {
            pair->draw_noise(k.samples);
        }
        if constexpr (Shape != grounded) {
            k.xs = xs + (Shape == lane_major ? done * k.n_lanes : done);
            k.phase = done % period;
        }
        bank_kernel(k);
    }
}

void modulator_bank::check_pair(const modulator_bank& in_phase, const modulator_bank& quadrature,
                                std::size_t period) {
    BISTNA_EXPECTS(period > 0, "a bank pair needs sign tables of at least one entry");
    BISTNA_EXPECTS(&in_phase != &quadrature, "a bank pair needs two distinct banks");
    BISTNA_EXPECTS(in_phase.lanes() == quadrature.lanes(),
                   "a bank pair needs equal lane counts");
    BISTNA_EXPECTS(in_phase.params_ == quadrature.params_,
                   "a bank pair needs equal modulator params lane by lane");
}

void modulator_bank::step(const double* inputs, bool modulation_positive,
                          double* bits_out) noexcept {
    // One sample through the production kernel: 0.0 + 1.0 * bit is exactly
    // the bit.
    const double qsign = modulation_positive ? 1.0 : -1.0;
    const double unit = 1.0;
    std::fill_n(bits_out, lanes(), 0.0);
    run<lane_major>(nullptr, inputs, &qsign, nullptr, &unit, 1, 1, bits_out, nullptr);
}

void modulator_bank::accumulate_lane_major(const double* xs, const double* qsigns,
                                           const double* acc_signs, std::size_t count,
                                           double* acc) noexcept {
    run<lane_major>(nullptr, xs, qsigns, nullptr, acc_signs, count, count, acc, nullptr);
}

void modulator_bank::accumulate_grounded(std::size_t count, double* acc) noexcept {
    run<grounded>(nullptr, nullptr, nullptr, nullptr, nullptr, 1, count, acc, nullptr);
}

void modulator_bank::accumulate_pair_lane_major(modulator_bank& in_phase,
                                                modulator_bank& quadrature, const double* xs,
                                                const double* qsigns_i, const double* qsigns_q,
                                                const double* acc_signs, std::size_t period,
                                                std::size_t count, double* acc_i, double* acc_q) {
    check_pair(in_phase, quadrature, period);
    in_phase.run<lane_major>(&quadrature, xs, qsigns_i, qsigns_q, acc_signs, period, count,
                             acc_i, acc_q);
}

void modulator_bank::accumulate_pair_shared(modulator_bank& in_phase, modulator_bank& quadrature,
                                            const double* record, const double* qsigns_i,
                                            const double* qsigns_q, const double* acc_signs,
                                            std::size_t period, std::size_t count, double* acc_i,
                                            double* acc_q) {
    check_pair(in_phase, quadrature, period);
    in_phase.run<shared>(&quadrature, record, qsigns_i, qsigns_q, acc_signs, period, count,
                         acc_i, acc_q);
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
