// Fault dictionary: the trajectory set a classifier matches failing dice
// against, stored as a checksummed binary file so a dictionary is built
// once per process corner and shipped across machines (the first step of
// sharding diagnosis across a test floor).
//
// A *signature* is the vector of measurements screening already produces
// for every die: the calibrated stimulus amplitude and phase, the
// evaluator's offset count rate, gain/phase at the mask frequencies and
// (optionally) THD at one frequency.  All of it comes out of a diagnostic
// screening_report -- no re-measuring -- and the same components are what
// trajectory_builder acquires per severity grid point.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "core/screening.hpp"
#include "core/sweep_engine.hpp"
#include "diag/fault_model.hpp"

namespace bistna::diag {

/// Which measurements form the signature vector, in component order:
/// stimulus_volts, stimulus_phase_deg, offset_rate, gain_db@f...,
/// phase_deg@f..., thd_db.  The space is part of the dictionary and
/// round-trips through the file header (component names encode it), so a
/// shipped dictionary can never be matched against mismatched signatures.
struct signature_space {
    bool include_stimulus = true;
    bool include_stimulus_phase = true;
    bool include_offset = true;
    bool include_gain = true;
    bool include_phase = true;
    std::vector<double> frequencies_hz; ///< gain/phase measurement points
    std::size_t thd_max_harmonic = 0;   ///< 0 disables the THD component
    double thd_f_hz = 0.0;

    /// THD readings below this are clamped when extracting signatures: a
    /// fault that crushes the harmonics below the quantization floor (e.g.
    /// a heavy integrator leak) measures -inf dB, and anything below this
    /// floor is measurement noise anyway.
    static constexpr double thd_clamp_db = -70.0;
    /// Same guard for gain components: a hard fault can push a measured
    /// amplitude to exactly zero (-inf dB), which must stay finite for the
    /// classifier's distance arithmetic.
    static constexpr double gain_clamp_db = -80.0;

    bool operator==(const signature_space&) const = default;

    std::size_t dimensions() const;

    /// One name per component, e.g. "gain_db@1000", "thd3_db@200".
    std::vector<std::string> component_names() const;

    /// Inverse of component_names (throws configuration_error on malformed
    /// or inconsistent names).
    static signature_space parse(std::span<const std::string> names);

    /// Per-component measurement-resolution floors for distance
    /// normalization: a component whose dictionary spread is below its
    /// floor carries no fault information and must not amplify noise.
    std::vector<double> component_floors() const;

    /// The natural space over a spec mask: gain/phase at every mask limit
    /// plus the three BIST-health components; thd_max_harmonic >= 2 adds a
    /// THD component at thd_f_hz (0 picks the first limit's frequency).
    static signature_space from_mask(const core::spec_mask& mask,
                                     std::size_t thd_max_harmonic = 0,
                                     double thd_f_hz = 0.0);

    /// The THD measurement frequency with the 0-means-first-frequency
    /// default resolved -- the same resolution screening and the
    /// trajectory builder apply, so extraction and acquisition can never
    /// disagree about where the THD came from.
    double resolved_thd_f_hz() const;

    /// The screening options a report must have been produced with for
    /// from_report to find every component (diagnostic continue + THD).
    core::screening_options screening_options() const;

    /// Extract the signature from a (diagnostic) screening report.  Throws
    /// configuration_error when the report lacks a component the space
    /// needs (e.g. non-diagnostic early return, missing frequency).
    std::vector<double> from_report(const core::screening_report& report) const;

    /// Extract the signature from a trajectory-builder acquisition (the
    /// program's frequencies must be this space's frequencies, in order).
    std::vector<double>
    from_acquisition(const core::sweep_engine::acquisition_result& result) const;
};

/// One severity grid point of a fault trajectory.
struct trajectory_point {
    double severity = 0.0;
    std::vector<double> signature;

    bool operator==(const trajectory_point&) const = default;
};

/// The measured signature curve of one fault over its severity grid
/// (ascending severity; a single point is a degenerate but valid
/// trajectory).
struct fault_trajectory {
    fault_kind kind = fault_kind::cap_unit_mismatch;
    std::vector<trajectory_point> points;

    bool operator==(const fault_trajectory&) const = default;
};

struct fault_dictionary {
    signature_space space;
    /// Signature of the fault-free nominal die (empty when not recorded).
    std::vector<double> healthy;
    std::vector<fault_trajectory> trajectories;

    bool operator==(const fault_dictionary&) const = default;

    /// The framed checksummed store format (store/dictionary_io.cpp), with
    /// the trajectory matrix stored as one contiguous 8-aligned f64 block.
    /// Trajectories keep their order and boundaries, so two of the same
    /// kind (e.g. the two branches of a signed severity axis) stay apart.
    /// Doubles travel as bit patterns -- NaN payloads and signed zeros
    /// survive exactly -- and any torn/corrupt file, or one with anything
    /// after the matrix, is rejected with a bistna::serialization_error
    /// naming the byte offset.
    void write_binary(const std::string& path) const;
    static fault_dictionary read_binary(const std::string& path);
};

} // namespace bistna::diag
