// Lockstep structure-of-arrays bank of first-order sigma-delta modulators.
//
// Screening a production lot evaluates many independent dice whose
// modulators execute the *same* instruction sequence on different data --
// the ideal SIMD shape.  The bank keeps N modulators' state, leak, offset
// and comparator lanes in contiguous arrays.  Its kernel steps them in
// register blocks: a block of lanes loads its running values (state, last
// decision, clip count, accumulator) once, keeps them in vector registers
// for the whole sample loop and stores them once.  A block is 4 vectors of
// lanes -- 32 lanes under AVX-512, 16 under AVX2, 8 at the baseline ISA --
// except that a pair's block under AVX-512 is 2 vectors (16 lanes) of each
// bank.  A lane count that is not a whole number of blocks ends in one
// smaller block whose last vector is padded with inert lanes.
// Each kernel clone instantiates that one body at its own vector width
// (common/kernel.hpp).  The pair entries step an acquisition's I and Q
// banks in the same loop: each sample's input is loaded once and the
// lanes' constants are shared, because the two channels of a die are
// matched modulators with equal params.  The kernel reads its modulation
// and counter signs from tables of P entries that repeat every P samples:
// one square-wave period (P = N/k) for the pair entries, one entry per
// sample (P = count) for accumulate_lane_major, and P = 1 for step().
//
// Contract with the scalar reference (sd_modulator):
//   * lane l constructed via add_lane(params, rng) produces the exact
//     bit/state/clip sequence of sd_modulator(params, rng) fed the same
//     inputs -- per-lane arithmetic is straight-line, never reassociated,
//     and lanes never interact (so any lane count, any lane permutation,
//     and running a bank alone or paired yields the same per-lane results);
//   * each lane owns its own clip counter.  A noisy lane joins the noise
//     stream of the first earlier noisy lane whose RNG equals its own
//     (rng::operator==), whatever their noise_rms, and opens a new stream
//     otherwise.  The stream's RNG position lives in the stream's first
//     lane, and after any call it is exactly where each of its lanes'
//     scalar modulators would be: the scalar draws rms * standard_normal(rng)
//     (common/normal.hpp) once per sample, standard_normal is a pure
//     function of the stream, and although a ziggurat draw consumes a
//     variable number of words, the draws and their order are the same;
//   * lanes with noise_rms == 0 never draw from their RNG, and a bank whose
//     lanes are all noiseless holds no noise tile and loads no noise.
//
// Noisy lanes run in the same vectorized kernel: before each block of
// samples every stream draws exactly that block's noise once, however many
// lanes sit on it, into a lane-major tile, and the kernel adds lane l's
// tile entry where sd_modulator::step adds its draw.  A one-lane stream
// draws straight into its lane's column; a shared stream draws its block
// of unit deviates z and gives lane l rms_l * z, the product
// sd_modulator::step forms.  A pair's two banks each draw into their own
// tile before the pair block runs; their streams are their own, so the
// order they draw in changes no draw.
#pragma once

#include <cstddef>
#include <vector>

#include "common/rng.hpp"
#include "sd/modulator.hpp"

namespace bistna::sd {

class modulator_bank {
public:
    modulator_bank() = default;

    /// Append a lane that behaves exactly like sd_modulator(params,
    /// noise_rng); returns the lane index.  Rejects the params
    /// modulator_params::validate() rejects.
    std::size_t add_lane(const modulator_params& params,
                         bistna::rng noise_rng = bistna::rng(0));

    std::size_t lanes() const noexcept { return state_.size(); }

    /// One lockstep master-clock sample: lane l consumes inputs[l], the
    /// shared modulation sign applies to every lane, and bits_out[l]
    /// receives the lane's output bit as +1.0 / -1.0.  bits_out must not
    /// overlap inputs.
    void step(const double* inputs, bool modulation_positive, double* bits_out) noexcept;

    /// Lockstep acquisition over `count` lane-major samples: sample n's
    /// inputs live at xs[n * lanes() .. n * lanes() + lanes()), exactly the
    /// layout dut::state_space_bank emits, so render feeds measure without
    /// a transpose.  Lane l accumulates acc[l] += acc_signs[n] * bit with
    /// modulation sign qsigns[n] -- the eqs. (3)-(5) signature counters of
    /// every lane in one pass.  qsigns / acc_signs hold `count` entries
    /// shared across lanes as exact +/-1 doubles, and the +/-1 sums are
    /// exact in double up to 2^53 counts.  Bit-identical per lane to the
    /// scalar modulator fed the same per-lane sample sequence.
    void accumulate_lane_major(const double* xs, const double* qsigns,
                               const double* acc_signs, std::size_t count,
                               double* acc) noexcept;

    /// Grounded-input lockstep run (input 0, positive modulation, unit
    /// accumulation sign): the offset-calibration hot loop.
    void accumulate_grounded(std::size_t count, double* acc) noexcept;

    /// accumulate_lane_major() on an acquisition's two channel banks in one
    /// pass over `count` samples, with sign tables of `period` entries that
    /// repeat: sample n reads entry n mod period.  in_phase runs with
    /// qsigns_i into acc_i and quadrature with qsigns_q into acc_q, both
    /// consuming xs and acc_signs.  Bit-identical to the two single-bank
    /// calls on the tables repeated out to `count` entries, in either
    /// order.  The banks must be distinct, hold the same lane count and
    /// equal modulator_params lane by lane (eval's batched acquisitions
    /// build them from the same extractors), and `period` must be positive;
    /// otherwise throws precondition_error.
    static void accumulate_pair_lane_major(modulator_bank& in_phase, modulator_bank& quadrature,
                                           const double* xs, const double* qsigns_i,
                                           const double* qsigns_q, const double* acc_signs,
                                           std::size_t period, std::size_t count, double* acc_i,
                                           double* acc_q);

    /// accumulate_pair_lane_major() over one record shared by every lane
    /// (the cache-shared calibration staircase): lane l consumes record[n]
    /// for all l, with no lane-major copy of the broadcast input.
    static void accumulate_pair_shared(modulator_bank& in_phase, modulator_bank& quadrature,
                                       const double* record, const double* qsigns_i,
                                       const double* qsigns_q, const double* acc_signs,
                                       std::size_t period, std::size_t count, double* acc_i,
                                       double* acc_q);

    /// Samples per noise block at the current lane count: the noise tile
    /// holds 4096 doubles (32 KiB), so 4096 / lanes() samples -- 256 at 16
    /// lanes -- and at least one.
    std::size_t noise_tile_samples() const noexcept;

    /// Distinct noise streams the bank draws, one per block each: at most
    /// the noisy lane count, and 1 when every noisy lane joined at one
    /// stream position.
    std::size_t noise_streams() const noexcept { return streams_.size(); }

    /// Restart lane `lane` like sd_modulator::reset.
    void reset_lane(std::size_t lane, double initial_state = 0.0);

    /// Integrator state of one lane (for bound verification and tests).
    double state(std::size_t lane) const;
    std::size_t clip_events(std::size_t lane) const;
    const modulator_params& params(std::size_t lane) const;

private:
    /// Runs `count` samples of one input layout (a constant defined in
    /// modulator_bank.cpp) through the kernel, a noise block at a time when
    /// the bank has noisy lanes -- and through `pair` in the same pass, with
    /// its own signs, counters and noise, when `pair` is not null.  The
    /// sign tables hold `period` entries; sample n reads entry n mod period.
    template <int Shape>
    void run(modulator_bank* pair, const double* xs, const double* qsigns,
             const double* pair_qsigns, const double* acc_signs, std::size_t period,
             std::size_t count, double* acc, double* pair_acc) noexcept;

    /// The pair entries' precondition.
    static void check_pair(const modulator_bank& in_phase, const modulator_bank& quadrature,
                           std::size_t period);

    /// Fill the first `samples` rows of the noise tile: each stream's
    /// lanes' columns from one draw of the stream, each noiseless lane's
    /// column with 0.0.
    void draw_noise(std::size_t samples) noexcept;

    // SoA lanes.  Comparator decisions and clip counters are kept as
    // doubles (+1/-1 and exact small integers) so the inner loop stays in
    // one vector domain.
    std::vector<double> state_;
    std::vector<double> last_;        ///< comparator last decision, +1/-1
    std::vector<double> leak_;
    std::vector<double> b_;           ///< CI/CF
    std::vector<double> vref_;
    std::vector<double> input_offset_;
    std::vector<double> settle_gain_; ///< 1 - settling_error
    std::vector<double> swing_;
    std::vector<double> cmp_offset_;
    std::vector<double> cmp_hyst_;
    std::vector<double> noise_rms_;   ///< read by draw_noise, not the kernel
    std::vector<double> clip_;        ///< per-lane clip event count
    std::vector<bistna::rng> rng_;    ///< read only for a stream's first lane
    std::vector<modulator_params> params_;
    /// Each noise stream's noisy lanes, in lane order; the stream's RNG is
    /// rng_[stream.front()].
    std::vector<std::vector<std::size_t>> streams_;
    /// Lane-major noise block, sample j of lane l at [j * lanes() + l],
    /// with a vector's worth of slack past the last row for a partial
    /// vector's loads; allocated by add_lane (the accumulate calls are
    /// noexcept), and empty while every lane is noiseless.
    std::vector<double> noise_tile_;
    /// One block of a shared stream's unit deviates, reused stream by
    /// stream; allocated by add_lane when a stream gains its second lane,
    /// and empty until then.
    std::vector<double> units_;
};

} // namespace bistna::sd
