// Production screening on top of the network analyzer (extension).
//
// The paper motivates BIST with test economics; this module turns the
// analyzer into the go/no-go instrument a production flow needs: spec
// masks over frequency, conservative interval-based pass/fail (a die
// passes only if its *guaranteed* measurement interval sits inside the
// mask), and Monte Carlo lot screening across process draws.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "common/statistics.hpp"
#include "common/units.hpp"
#include "core/network_analyzer.hpp"

namespace bistna::core {

/// One gain-mask point: at f_hz the gain must lie within [min, max] dB.
struct gain_limit {
    double f_hz = 0.0;
    double gain_db_min = 0.0;
    double gain_db_max = 0.0;
    std::string name;
};

/// A spec mask: gain limits plus an optional stimulus self-test window.
struct spec_mask {
    std::vector<gain_limit> limits;
    double stimulus_volts_nominal = 0.3;
    double stimulus_tolerance = 0.05; ///< relative

    /// Mask for the paper's 1 kHz Butterworth DUT.
    static spec_mask paper_lowpass();
};

/// Per-limit screening outcome.  Beyond pass/fail it records everything a
/// downstream fault classifier needs (limit id, measured gain *and* phase,
/// signed margin), so a failing die can be diagnosed from its report alone
/// without re-measuring.
struct limit_result {
    gain_limit limit;
    std::size_t limit_index = 0; ///< position in the spec mask
    double measured_db = 0.0;
    interval measured_bounds_db;
    double phase_deg = 0.0;      ///< measured phase at the limit frequency
    interval phase_deg_bounds;
    /// Worst-case distance of the guaranteed gain interval to the mask
    /// window (positive: passes with that much room; negative: fails by
    /// that much).
    double margin_db = 0.0;
    bool passed = false;
};

/// Extra acquisitions / policies for a screening run.  The defaults are the
/// plain production flow; the diag subsystem turns both knobs on so every
/// die leaves screening with a complete fault signature.
struct screening_options {
    /// Keep measuring the mask limits (and distortion) after a failed
    /// stimulus self-test instead of early-returning.  The die still fails,
    /// but its report carries the data a classifier needs.
    bool continue_after_self_test_failure = false;
    /// Also measure harmonic distortion of the DUT output (one extra
    /// acquisition per harmonic at distortion_f_hz).
    bool measure_distortion = false;
    double distortion_f_hz = 0.0; ///< 0 picks the first mask limit's frequency
    std::size_t distortion_max_harmonic = 3;
};

struct screening_report {
    bool self_test_passed = false;
    double stimulus_volts = 0.0;
    double stimulus_phase_deg = 0.0; ///< calibration-path phase (diagnostics)
    /// Calibrated offset count rate of the evaluator's in-phase channel (0
    /// when the offset mode doesn't calibrate) -- a direct probe of the
    /// modulator pair's offset health.
    double offset_rate = 0.0;
    std::vector<limit_result> limits;
    /// True when the distortion stage ran; thd_db is NaN (never a fake
    /// 0 dB reading) until then -- the same sentinel the acquisition path
    /// uses.
    bool distortion_measured = false;
    double thd_db = std::numeric_limits<double>::quiet_NaN();
    double thd_f_hz = 0.0; ///< frequency the THD was measured at
    bool passed = false;
};

/// Self-test verdict on a measured stimulus amplitude (shared by the
/// scalar and batched screening paths).
bool stimulus_self_test(const spec_mask& mask, double stimulus_volts);

/// Pass/fail of one mask limit against a measured Bode point: conservative
/// interval containment, so measurement uncertainty can never produce a
/// false pass.  Shared by the scalar and batched paths.
limit_result evaluate_limit(const gain_limit& limit, const frequency_point& point,
                            std::size_t limit_index = 0);

/// Screen one board (self-test + all mask limits, conservative intervals).
screening_report screen(network_analyzer& analyzer, const spec_mask& mask,
                        const screening_options& options = {});

/// Factory producing a fresh board instance per Monte Carlo draw.
using board_factory = std::function<demonstrator_board(std::uint64_t seed)>;

struct lot_result {
    std::size_t dice = 0;
    std::size_t passed = 0;
    double yield() const {
        return dice == 0 ? 0.0 : static_cast<double>(passed) / static_cast<double>(dice);
    }
    /// Measured-gain distribution at each mask limit across the lot.
    std::vector<summary> gain_distributions;
};

/// Aggregate per-die reports into a lot result (pass count + per-limit
/// gain distributions); dice whose self-test failed contribute no gains.
lot_result aggregate_lot(const std::vector<screening_report>& reports);

/// Screen `dice` process draws; seeds are first_seed, first_seed+1, ...
lot_result screen_lot(const board_factory& factory, const analyzer_settings& settings,
                      const spec_mask& mask, std::size_t dice,
                      std::uint64_t first_seed = 1, const screening_options& options = {});

/// Per-die observer invoked (in die order, on the calling thread) with each
/// finished report -- how the diag subsystem streams a diagnosed lot's
/// reports out (e.g. into a result store) while the lot is still measuring.
using die_report_hook = std::function<void(std::size_t die, const screening_report&)>;

} // namespace bistna::core
