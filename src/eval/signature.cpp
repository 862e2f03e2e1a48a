#include "eval/signature.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "sd/modulator_bank.hpp"
#include "telemetry/metrics.hpp"

namespace bistna::eval {

namespace {

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

demod_tables demod_tables::build(const acquisition_settings& settings) {
    const demod_reference demod(settings.harmonic_k, settings.n_per_period);
    const std::size_t total = settings.periods * settings.n_per_period;
    const std::size_t half = total / 2;
    const bool chop = settings.offset == offset_mode::chopped;

    demod_tables tables;
    tables.harmonic_k = settings.harmonic_k;
    tables.n_per_period = settings.n_per_period;
    tables.periods = settings.periods;
    tables.chopped = chop;
    tables.q1_sign.resize(total);
    tables.q2_sign.resize(total);
    tables.acc_sign.resize(total);
    for (std::size_t n = 0; n < total; ++n) {
        const bool invert = chop && n >= half;
        const bool q1 = (demod.in_phase_sign(n) > 0) != invert;
        const bool q2 = (demod.quadrature_sign(n) > 0) != invert;
        tables.q1_sign[n] = q1 ? 1.0 : -1.0;
        tables.q2_sign[n] = q2 ? 1.0 : -1.0;
        tables.acc_sign[n] = invert ? -1.0 : 1.0;
    }
    return tables;
}

bool demod_tables::matches(const acquisition_settings& settings) const noexcept {
    return harmonic_k == settings.harmonic_k && n_per_period == settings.n_per_period &&
           periods == settings.periods &&
           chopped == (settings.offset == offset_mode::chopped);
}

signature_extractor::signature_extractor(sd::modulator_params params, std::uint64_t seed)
    : params_(params), rng_(seed) {}

void signature_extractor::calibrate_offset(std::size_t periods, std::size_t n_per_period) {
    BISTNA_EXPECTS(periods > 0, "calibration needs at least one period");
    const std::size_t total = periods * n_per_period;
    sd::sd_modulator mod1(params_, rng_.spawn());
    sd::sd_modulator mod2(params_, rng_.spawn());
    long long acc1 = 0;
    long long acc2 = 0;
    for (std::size_t n = 0; n < total; ++n) {
        acc1 += mod1.step(0.0, true);
        acc2 += mod2.step(0.0, true);
    }
    offset_rate_1_ = static_cast<double>(acc1) / static_cast<double>(total);
    offset_rate_2_ = static_cast<double>(acc2) / static_cast<double>(total);
    calibration_samples_ = static_cast<double>(total);
    calibrated_ = true;
}

bool signature_extractor::try_restore_calibration(
    const calibration_snapshot& snapshot) noexcept {
    // A noiseless calibration never reads the spawned streams, so only a
    // noisy one depends on where this lane's stream sits.
    if (calibrated_ || !(params_ == snapshot.params) ||
        (params_.draws_noise() && !(rng_ == snapshot.rng_before))) {
        return false;
    }
    (void)rng_.spawn(); // the two channels calibrate_offset would have spawned
    (void)rng_.spawn();
    offset_rate_1_ = snapshot.offset_rate_1;
    offset_rate_2_ = snapshot.offset_rate_2;
    calibration_samples_ = snapshot.calibration_samples;
    calibrated_ = true;
    return true;
}

void signature_extractor::validate(const acquisition_settings& settings) const {
    BISTNA_EXPECTS(settings.periods > 0, "evaluation needs at least one period");
    BISTNA_EXPECTS(demod_reference::alignment_ok(settings.harmonic_k, settings.n_per_period),
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
    const demod_reference demod(settings.harmonic_k, settings.n_per_period);
    const std::size_t total = settings.periods * settings.n_per_period;
    const std::size_t half = total / 2;
    const bool chop = settings.offset == offset_mode::chopped;

    sd::sd_modulator mod1(params_, rng_.spawn());
    sd::sd_modulator mod2(params_, rng_.spawn());
    if (settings.randomize_initial_state) {
        mod1.reset(initial_state());
        mod2.reset(initial_state());
    }

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

    signature_result result;
    result.raw_i1 = acc1;
    result.raw_i2 = acc2;
    result.total_samples = total;
    result.harmonic_k = settings.harmonic_k;
    result.n_per_period = settings.n_per_period;
    result.periods = settings.periods;
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
        result.i1 -= offset_rate_1_ * static_cast<double>(total);
        result.i2 -= offset_rate_2_ * static_cast<double>(total);
        // Residual calibration error: 4/MN_cal per sample, times MN samples.
        result.eps_bound = 4.0 + 4.0 * static_cast<double>(total) / calibration_samples_;
        break;
    }
    }
    return result;
}

std::vector<signature_result> signature_extractor::acquire_batch_impl(
    std::span<signature_extractor* const> extractors, const acquisition_settings& settings,
    const demod_tables& tables, const double* record, bool shared_record) {
    BISTNA_EXPECTS(!extractors.empty(), "batch acquisition needs at least one lane");
    BISTNA_EXPECTS(tables.matches(settings),
                   "demod tables do not match the acquisition settings");
    for (signature_extractor* extractor : extractors) {
        BISTNA_EXPECTS(extractor != nullptr, "null extractor lane");
        extractor->validate(settings);
    }

    const std::size_t total = settings.periods * settings.n_per_period;
    const std::size_t n_lanes = extractors.size();

    // Build the matched modulator pair of every lane.  Per lane the RNG
    // consumption order is exactly the scalar acquire(): spawn ch1, spawn
    // ch2, then (optionally) draw the two initial states.
    sd::modulator_bank bank1;
    sd::modulator_bank bank2;
    for (std::size_t l = 0; l < n_lanes; ++l) {
        signature_extractor& ex = *extractors[l];
        bank1.add_lane(ex.params_, ex.rng_.spawn());
        bank2.add_lane(ex.params_, ex.rng_.spawn());
        if (settings.randomize_initial_state) {
            bank1.reset_lane(l, ex.initial_state());
            bank2.reset_lane(l, ex.initial_state());
        }
    }

    // The two channels are independent modulators, so stepping both banks
    // in one pass over the record produces the same per-lane sequences as
    // the scalar per-sample interleaving; the pair pass loads each sample
    // once for both.  The +/-1 counter sums are exact in double
    // (total << 2^53).
    std::vector<double> acc1(n_lanes, 0.0);
    std::vector<double> acc2(n_lanes, 0.0);
    if (shared_record) {
        sd::modulator_bank::accumulate_pair_shared(bank1, bank2, record, tables.q1_sign.data(),
                                                   tables.q2_sign.data(), tables.acc_sign.data(),
                                                   total, acc1.data(), acc2.data());
    } else {
        sd::modulator_bank::accumulate_pair_lane_major(
            bank1, bank2, record, tables.q1_sign.data(), tables.q2_sign.data(),
            tables.acc_sign.data(), total, acc1.data(), acc2.data());
    }
    count_bank(bank1);
    count_bank(bank2);

    std::vector<signature_result> results(n_lanes);
    for (std::size_t l = 0; l < n_lanes; ++l) {
        const signature_extractor& ex = *extractors[l];
        signature_result& result = results[l];
        result.raw_i1 = static_cast<long long>(acc1[l]);
        result.raw_i2 = static_cast<long long>(acc2[l]);
        result.total_samples = total;
        result.harmonic_k = settings.harmonic_k;
        result.n_per_period = settings.n_per_period;
        result.periods = settings.periods;
        result.vref = ex.params_.vref;
        result.i1 = static_cast<double>(result.raw_i1);
        result.i2 = static_cast<double>(result.raw_i2);

        switch (settings.offset) {
        case offset_mode::none:
            result.eps_bound = 4.0;
            break;
        case offset_mode::chopped:
            result.eps_bound = 8.0;
            break;
        case offset_mode::calibrated: {
            result.i1 -= ex.offset_rate_1_ * static_cast<double>(total);
            result.i2 -= ex.offset_rate_2_ * static_cast<double>(total);
            result.eps_bound =
                4.0 + 4.0 * static_cast<double>(total) / ex.calibration_samples_;
            break;
        }
        }
    }
    return results;
}

std::vector<signature_result> signature_extractor::acquire_batch_lane_major(
    std::span<signature_extractor* const> extractors, const double* lane_major,
    const acquisition_settings& settings, const demod_tables& tables) {
    return acquire_batch_impl(extractors, settings, tables, lane_major, false);
}

std::vector<signature_result> signature_extractor::acquire_batch_shared(
    std::span<signature_extractor* const> extractors, std::span<const double> record,
    const acquisition_settings& settings, const demod_tables& tables) {
    const std::size_t total = settings.periods * settings.n_per_period;
    BISTNA_EXPECTS(record.size() >= total, "shared record shorter than M*N samples");
    return acquire_batch_impl(extractors, settings, tables, record.data(), true);
}

void signature_extractor::calibrate_offset_batch(
    std::span<signature_extractor* const> extractors, std::size_t periods,
    std::size_t n_per_period) {
    BISTNA_EXPECTS(!extractors.empty(), "batch calibration needs at least one lane");
    BISTNA_EXPECTS(periods > 0, "calibration needs at least one period");
    const std::size_t total = periods * n_per_period;
    const std::size_t n_lanes = extractors.size();

    // The grounded run (input 0, positive modulation, unit counter sign)
    // gives both channels the same program, so they differ only in their
    // noise streams.  A noiseless lane runs its I channel alone and both
    // rates take its count; a noisy lane's two channels are two lanes of
    // the one bank.  Either way the lane spawns twice, I first, as
    // calibrate_offset does.
    sd::modulator_bank bank;
    std::vector<std::pair<std::size_t, std::size_t>> channels; // bank lanes of I and Q
    channels.reserve(n_lanes);
    for (signature_extractor* extractor : extractors) {
        BISTNA_EXPECTS(extractor != nullptr, "null extractor lane");
        const std::size_t i = bank.add_lane(extractor->params_, extractor->rng_.spawn());
        const bistna::rng q_stream = extractor->rng_.spawn();
        channels.emplace_back(
            i, extractor->params_.draws_noise() ? bank.add_lane(extractor->params_, q_stream) : i);
    }

    std::vector<double> acc(bank.lanes(), 0.0);
    bank.accumulate_grounded(total, acc.data());
    count_bank(bank);

    for (std::size_t l = 0; l < n_lanes; ++l) {
        signature_extractor& ex = *extractors[l];
        ex.offset_rate_1_ = acc[channels[l].first] / static_cast<double>(total);
        ex.offset_rate_2_ = acc[channels[l].second] / static_cast<double>(total);
        ex.calibration_samples_ = static_cast<double>(total);
        ex.calibrated_ = true;
    }
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

    const demod_reference demod(settings.harmonic_k, settings.n_per_period);
    const std::size_t total = settings.periods * settings.n_per_period;

    sd::sd_modulator mod1(params_, rng_.spawn());
    sd::sd_modulator mod2(params_, rng_.spawn());
    if (settings.randomize_initial_state) {
        mod1.reset(initial_state());
        mod2.reset(initial_state());
    }

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
               samples_done == checkpoint_periods[next_checkpoint] * settings.n_per_period) {
            signature_result r;
            r.raw_i1 = acc1;
            r.raw_i2 = acc2;
            r.total_samples = samples_done;
            r.harmonic_k = settings.harmonic_k;
            r.n_per_period = settings.n_per_period;
            r.periods = checkpoint_periods[next_checkpoint];
            r.vref = params_.vref;
            r.i1 = static_cast<double>(acc1);
            r.i2 = static_cast<double>(acc2);
            if (settings.offset == offset_mode::calibrated) {
                r.i1 -= offset_rate_1_ * static_cast<double>(samples_done);
                r.i2 -= offset_rate_2_ * static_cast<double>(samples_done);
                r.eps_bound =
                    4.0 + 4.0 * static_cast<double>(samples_done) / calibration_samples_;
            } else {
                r.eps_bound = 4.0;
            }
            results.push_back(r);
            ++next_checkpoint;
        }
    }
    BISTNA_EXPECTS(next_checkpoint == checkpoint_periods.size(),
                   "internal error: not all checkpoints were reached");
    return results;
}

} // namespace bistna::eval
