// Nearest-trajectory fault classification.
//
// A failing die's signature is matched against every dictionary trajectory
// by point-to-polyline distance in *normalized* signature space (each
// component scaled by its dictionary-wide spread, floored at its
// measurement resolution so flat components can't amplify noise).  The
// result is a ranked hypothesis list -- fault kind, interpolated severity
// estimate, distance -- plus an ambiguity set: every hypothesis whose
// distance is within a margin of the best, which is how two faults with
// overlapping trajectories are reported honestly instead of guessed
// between.  A die closer to the healthy reference than a threshold is
// reported as "no fault" (a spec marginality, not a parametric defect).
#pragma once

#include <span>
#include <vector>

#include "diag/fault_dictionary.hpp"

namespace bistna::diag {

struct fault_hypothesis {
    fault_kind kind = fault_kind::cap_unit_mismatch;
    double severity = 0.0;         ///< interpolated along the trajectory
    double distance = 0.0;         ///< normalized point-to-polyline distance
    std::size_t trajectory_index = 0;
};

struct diagnosis {
    /// False when the signature sits within healthy_threshold of the
    /// dictionary's healthy reference (or the dictionary is empty).
    bool fault_detected = false;
    double healthy_distance = 0.0; ///< 0 when no healthy reference exists
    std::vector<fault_hypothesis> ranked; ///< ascending distance, all trajectories
    std::vector<fault_hypothesis> ambiguity; ///< ranked prefix within the margin
};

class classifier {
public:
    /// Normalized distance to the healthy reference below which a die is
    /// reported fault-free (units: per-component spreads, RMS-averaged).
    /// Sized to sit above process-variation + measurement noise but below
    /// the catalog trajectories' failing-severity extents.
    static constexpr double healthy_threshold = 0.25;
    /// A hypothesis joins the ambiguity set when its distance is within
    /// best * ambiguity_ratio + ambiguity_margin.
    static constexpr double ambiguity_ratio = 1.25;
    static constexpr double ambiguity_margin = 0.1;

    explicit classifier(fault_dictionary dictionary);

    /// Classify a signature in the dictionary's space (size must equal
    /// space.dimensions()).
    diagnosis classify(std::span<const double> signature) const;

    /// Classify a diagnostic screening report (signature extracted via the
    /// dictionary's space).
    diagnosis classify_report(const core::screening_report& report) const;

    const fault_dictionary& dictionary() const noexcept { return dictionary_; }
    /// Per-component normalization scales (dictionary spread, floored).
    const std::vector<double>& component_scales() const noexcept { return scales_; }

private:
    double distance(std::span<const double> a, std::span<const double> b) const;

    fault_dictionary dictionary_;
    std::vector<double> scales_;
};

} // namespace bistna::diag
