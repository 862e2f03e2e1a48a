#include "eval/signature.hpp"

#include <algorithm>
#include <array>
#include <iterator>
#include <utility>

#include "common/error.hpp"
#include "eval/calibration_share.hpp"
#include "sim/timebase.hpp"
#include "telemetry/metrics.hpp"

namespace bistna::eval {

namespace {

/// Samples in `periods` wave periods of N = 96, the board's fixed
/// oversampling ratio.
constexpr std::size_t samples_in(std::size_t periods) noexcept {
    return periods * sim::timebase::oversampling_ratio;
}

/// Interned once; counter_add is a no-op unless a registry is attached.
struct bank_counters {
    /// Noisy modulator lanes in the banks the batched paths run.
    telemetry::metric_id noisy_lanes = telemetry::counter_id("eval.noise.lanes");
    /// The distinct noise streams those lanes draw.
    telemetry::metric_id streams = telemetry::counter_id("eval.noise.streams");
    /// Integrator clip events in those banks.
    telemetry::metric_id clips = telemetry::counter_id("eval.modulator.clips");
};

/// Report a bank that has run.
void count_bank(const sd::modulator_bank& bank) {
    static const bank_counters ids;
    if (!telemetry::attached()) {
        return;
    }
    std::uint64_t noisy = 0;
    std::uint64_t clips = 0;
    for (std::size_t l = 0; l < bank.lanes(); ++l) {
        noisy += bank.params(l).draws_noise() ? 1 : 0;
        clips += bank.clip_events(l);
    }
    telemetry::counter_add(ids.noisy_lanes, noisy);
    telemetry::counter_add(ids.streams, bank.noise_streams());
    telemetry::counter_add(ids.clips, clips);
}

} // namespace

signature_extractor::signature_extractor(sd::modulator_params params, std::uint64_t seed)
    : params_(params), rng_(seed) {}

void signature_extractor::calibrate_offset(std::size_t periods) {
    BISTNA_EXPECTS(periods > 0, "calibration needs at least one period");
    const std::size_t total = samples_in(periods);
    sd::sd_modulator mod1(params_, rng_.spawn());
    sd::sd_modulator mod2(params_, rng_.spawn());
    long long acc1 = 0;
    long long acc2 = 0;
    for (std::size_t n = 0; n < total; ++n) {
        acc1 += mod1.step(0.0, true);
        acc2 += mod2.step(0.0, true);
    }
    set_calibration({static_cast<double>(acc1) / static_cast<double>(total),
                     static_cast<double>(acc2) / static_cast<double>(total)},
                    total);
}

void signature_extractor::set_calibration(offset_rates rates, std::size_t total) {
    offset_rates_ = rates;
    calibration_samples_ = static_cast<double>(total);
    calibrated_ = true;
}

void signature_extractor::validate(const acquisition_settings& settings) const {
    BISTNA_EXPECTS(settings.periods > 0, "evaluation needs at least one period");
    BISTNA_EXPECTS(demod_reference::alignment_ok(settings.harmonic_k),
                   "harmonic k violates the N mod 4k == 0 alignment condition");
    if (settings.offset == offset_mode::chopped) {
        BISTNA_EXPECTS(settings.periods % 2 == 0,
                       "chopped offset cancellation requires an even number of periods "
                       "(the paper's 'M even' condition)");
    }
    if (settings.offset == offset_mode::calibrated) {
        BISTNA_EXPECTS(calibrated_, "offset_mode::calibrated requires calibrate_offset() first");
    }
}

double signature_extractor::initial_state() {
    // Residual integrator charge from whatever conversion ran before: the
    // silicon never starts from exactly zero.  Stay within the bounded band.
    return rng_.uniform(-0.5, 0.5) * params_.vref;
}

signature_result signature_extractor::acquire(const sample_source& source,
                                              const acquisition_settings& settings) {
    validate(settings);
    const demod_reference demod(settings.harmonic_k);
    const std::size_t total = samples_in(settings.periods);
    const std::size_t half = total / 2;
    const bool chop = settings.offset == offset_mode::chopped;

    sd::sd_modulator mod1(params_, rng_.spawn());
    sd::sd_modulator mod2(params_, rng_.spawn());
    mod1.reset(initial_state());
    mod2.reset(initial_state());

    long long acc1 = 0;
    long long acc2 = 0;
    for (std::size_t n = 0; n < total; ++n) {
        const double x = source(n);
        const bool invert = chop && n >= half;
        const bool q1 = (demod.in_phase_sign(n) > 0) != invert;
        const bool q2 = (demod.quadrature_sign(n) > 0) != invert;
        const int bit1 = mod1.step(x, q1);
        const int bit2 = mod2.step(x, q2);
        acc1 += invert ? -bit1 : bit1;
        acc2 += invert ? -bit2 : bit2;
    }
    return assemble(settings, settings.periods, acc1, acc2);
}

signature_result signature_extractor::assemble(const acquisition_settings& settings,
                                               std::size_t periods, long long acc1,
                                               long long acc2) const {
    const std::size_t total = samples_in(periods);
    signature_result result;
    result.raw_i1 = acc1;
    result.raw_i2 = acc2;
    result.total_samples = total;
    result.harmonic_k = settings.harmonic_k;
    result.periods = periods;
    result.vref = params_.vref;
    result.i1 = static_cast<double>(acc1);
    result.i2 = static_cast<double>(acc2);

    switch (settings.offset) {
    case offset_mode::none:
        result.eps_bound = 4.0;
        break;
    case offset_mode::chopped:
        // Two independent half-segments contribute up to 4 each.
        result.eps_bound = 8.0;
        break;
    case offset_mode::calibrated: {
        result.i1 -= offset_rates_.ch1 * static_cast<double>(total);
        result.i2 -= offset_rates_.ch2 * static_cast<double>(total);
        // Residual calibration error: 4/MN_cal per sample, times MN samples.
        result.eps_bound = 4.0 + 4.0 * static_cast<double>(total) / calibration_samples_;
        break;
    }
    }
    return result;
}

batch_acquisition::batch_acquisition(std::span<signature_extractor* const> extractors,
                                     const acquisition_settings& settings)
    : extractors_(extractors.begin(), extractors.end()),
      settings_(settings),
      demod_(settings.harmonic_k),
      total_(samples_in(settings.periods)),
      acc1_(extractors.size(), 0.0),
      acc2_(extractors.size(), 0.0) {
    BISTNA_EXPECTS(!extractors_.empty(), "batch acquisition needs at least one lane");
    for (signature_extractor* extractor : extractors_) {
        BISTNA_EXPECTS(extractor != nullptr, "null extractor lane");
        extractor->validate(settings_);
    }
    // Per lane the RNG consumption order is exactly the scalar acquire():
    // spawn ch1, spawn ch2, then draw the two initial states.
    for (std::size_t l = 0; l < lanes(); ++l) {
        signature_extractor& ex = *extractors_[l];
        in_phase_.add_lane(ex.params_, ex.rng_.spawn());
        quadrature_.add_lane(ex.params_, ex.rng_.spawn());
        in_phase_.reset_lane(l, ex.initial_state());
        quadrature_.reset_lane(l, ex.initial_state());
    }
}

void batch_acquisition::feed_lane_major(const double* lane_major, std::size_t count) {
    feed(lane_major, false, count);
}

void batch_acquisition::feed_shared(const double* record, std::size_t count) {
    feed(record, true, count);
}

void batch_acquisition::feed(const double* samples, bool shared, std::size_t count) {
    BISTNA_EXPECTS(count <= remaining(), "feed runs past the end of the acquisition's record");
    BISTNA_EXPECTS(count % sim::timebase::oversampling_ratio == 0,
                   "a feed must be a whole number of periods, so it starts at phase 0 of "
                   "the sign tables");
    // A chopped acquisition inverts every sign over the second half of its
    // record, from sample (M/2) N on: a whole number of periods, so a feed
    // that straddles it splits into two passes that each start at phase 0.
    const std::size_t chop = settings_.offset == offset_mode::chopped ? total_ / 2 : total_;
    const std::size_t upright = fed_ < chop ? std::min(count, chop - fed_) : 0;
    if (upright > 0) {
        pass(samples, shared, upright, 1.0);
    }
    if (upright < count) {
        pass(samples + upright * (shared ? 1 : lanes()), shared, count - upright, -1.0);
    }
    fed_ += count;
}

void batch_acquisition::pass(const double* samples, bool shared, std::size_t count,
                             double sense) {
    // The two channels are independent modulators, so stepping both banks
    // in one pass produces the same per-lane sequences as the scalar
    // per-sample interleaving; the pair pass loads each sample once for
    // both.  It reads one square-wave period of each channel's modulation
    // sign and of the counter sign, P = N/k entries (1 for DC, whose signs
    // are all +1), repeated over the pass.  The +/-1 counter sums are exact
    // in double (total << 2^53).
    const std::size_t period = std::max<std::size_t>(demod_.period(), 1);
    std::array<double, sim::timebase::oversampling_ratio> q1{};
    std::array<double, sim::timebase::oversampling_ratio> q2{};
    std::array<double, sim::timebase::oversampling_ratio> acc_sign{};
    for (std::size_t n = 0; n < period; ++n) {
        q1[n] = sense * demod_.in_phase_sign(n);
        q2[n] = sense * demod_.quadrature_sign(n);
        acc_sign[n] = sense;
    }
    if (shared) {
        sd::modulator_bank::accumulate_pair_shared(in_phase_, quadrature_, samples, q1.data(),
                                                   q2.data(), acc_sign.data(), period, count,
                                                   acc1_.data(), acc2_.data());
    } else {
        sd::modulator_bank::accumulate_pair_lane_major(in_phase_, quadrature_, samples,
                                                       q1.data(), q2.data(), acc_sign.data(),
                                                       period, count, acc1_.data(),
                                                       acc2_.data());
    }
}

std::vector<signature_result> batch_acquisition::finish() const {
    BISTNA_EXPECTS(remaining() == 0,
                   "an acquisition finishes only once its whole record is fed");
    count_bank(in_phase_);
    count_bank(quadrature_);
    std::vector<signature_result> results;
    results.reserve(lanes());
    for (std::size_t l = 0; l < lanes(); ++l) {
        results.push_back(extractors_[l]->assemble(settings_, settings_.periods,
                                                   static_cast<long long>(acc1_[l]),
                                                   static_cast<long long>(acc2_[l])));
    }
    return results;
}

std::size_t signature_extractor::calibrate_offset_batch(
    std::span<signature_extractor* const> extractors, calibration_share& share,
    std::size_t periods) {
    BISTNA_EXPECTS(!extractors.empty(), "batch calibration needs at least one lane");
    BISTNA_EXPECTS(periods > 0, "calibration needs at least one period");
    const std::size_t total = samples_in(periods);

    // A key the share lacks: its bank lanes of I and Q, and the lanes that
    // take its rates.
    struct missing_key {
        calibration_key key;
        std::size_t i_lane;
        std::size_t q_lane;
        std::vector<signature_extractor*> lanes;
    };
    std::vector<missing_key> missing;
    sd::modulator_bank bank;
    for (signature_extractor* extractor : extractors) {
        BISTNA_EXPECTS(extractor != nullptr, "null extractor lane");
        signature_extractor& ex = *extractor;
        calibration_key key(ex.params_, total, ex.rng_);
        const bistna::rng i_stream = ex.rng_.spawn();
        const bistna::rng q_stream = ex.rng_.spawn();
        if (const auto rates = share.find(key)) {
            ex.set_calibration(*rates, total);
            continue;
        }
        auto it = std::find_if(missing.begin(), missing.end(),
                               [&](const missing_key& m) { return m.key == key; });
        if (it == missing.end()) {
            // The grounded run (input 0, positive modulation, unit counter
            // sign) gives both channels the same program, so a noiseless
            // key's I count serves both rates.
            const std::size_t i = bank.add_lane(ex.params_, i_stream);
            const std::size_t q =
                ex.params_.draws_noise() ? bank.add_lane(ex.params_, q_stream) : i;
            missing.push_back({std::move(key), i, q, {}});
            it = std::prev(missing.end());
        }
        it->lanes.push_back(&ex);
    }
    if (missing.empty()) {
        return 0;
    }

    std::vector<double> acc(bank.lanes(), 0.0);
    bank.accumulate_grounded(total, acc.data());
    count_bank(bank);
    for (const missing_key& m : missing) {
        const offset_rates rates{acc[m.i_lane] / static_cast<double>(total),
                                 acc[m.q_lane] / static_cast<double>(total)};
        share.store(m.key, rates);
        for (signature_extractor* lane : m.lanes) {
            lane->set_calibration(rates, total);
        }
    }
    return missing.size();
}

std::vector<signature_result> signature_extractor::acquire_with_checkpoints(
    const sample_source& source, acquisition_settings settings,
    const std::vector<std::size_t>& checkpoint_periods) {
    BISTNA_EXPECTS(!checkpoint_periods.empty(), "need at least one checkpoint");
    BISTNA_EXPECTS(std::is_sorted(checkpoint_periods.begin(), checkpoint_periods.end()),
                   "checkpoints must be ascending");
    BISTNA_EXPECTS(settings.offset != offset_mode::chopped,
                   "checkpoint acquisition is incompatible with chopped mode");
    settings.periods = checkpoint_periods.back();
    validate(settings);

    const demod_reference demod(settings.harmonic_k);
    const std::size_t total = samples_in(settings.periods);

    sd::sd_modulator mod1(params_, rng_.spawn());
    sd::sd_modulator mod2(params_, rng_.spawn());
    mod1.reset(initial_state());
    mod2.reset(initial_state());

    std::vector<signature_result> results;
    results.reserve(checkpoint_periods.size());
    long long acc1 = 0;
    long long acc2 = 0;
    std::size_t next_checkpoint = 0;
    for (std::size_t n = 0; n < total; ++n) {
        const double x = source(n);
        const bool q1 = demod.in_phase_sign(n) > 0;
        const bool q2 = demod.quadrature_sign(n) > 0;
        acc1 += mod1.step(x, q1);
        acc2 += mod2.step(x, q2);

        const std::size_t samples_done = n + 1;
        while (next_checkpoint < checkpoint_periods.size() &&
               samples_done == samples_in(checkpoint_periods[next_checkpoint])) {
            results.push_back(
                assemble(settings, checkpoint_periods[next_checkpoint], acc1, acc2));
            ++next_checkpoint;
        }
    }
    BISTNA_EXPECTS(next_checkpoint == checkpoint_periods.size(),
                   "internal error: not all checkpoints were reached");
    return results;
}

} // namespace bistna::eval
